package harness

// Memoized values. Some results are pure functions of seeded datasets
// rather than workload runs: the Figure 10 corpus and representative
// feature matrices, and the dataset-level ablation arms. One is a summary
// of runs: the Table 6 rows, which persist in place of the output and
// reference arrays they are measured from. Each has one definition in
// memoDefs, keyed by its name. A memo is also a plan key (MemoVariant), so
// the plan executor schedules it on the same pool as the runs, and a
// `cubie dist` worker can compute it; renderers read it through memo. Both
// paths meet in the memo's plan-key flight (do, harness.go), so a process
// reads or computes each memo at most once.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/accuracy"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/runcache"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// MemoVariant is the pseudo-variant under which a plan schedules a
// memoized dataset value. A memo's plan key is RunKey{Workload: <its span
// category, "coverage" or "ablation">, Case: <its run-cache key>, Variant:
// MemoVariant}; the category is never a suite workload name, so a filter
// on suite workloads passes memo keys by.
const MemoVariant workload.Variant = "__memo"

var metMemosComputed = metrics.NewCounter("cubie_harness_memos_computed_total",
	"Memoized dataset values computed (found neither in memory nor in the run cache).")

// memoDef is one memoized value: the run-cache kind it persists under, its
// host-span category (also the Workload of its plan key), how many integer
// parameters its key carries after the name, the run keys it reads, and
// how to read and compute it. Its cost is in the committed table
// (memoSecs, costs.go).
type memoDef struct {
	kind, cat string
	params    int
	// inputs, when set, lists the run keys the memo reads. The plan
	// executor starts such a memo after every run key, and runs its inputs
	// as keys of their own when it must compute it (Execute).
	inputs  func(h *Harness) []RunKey
	get     func(rc *runcache.Cache, key string) (any, bool)
	compute func(h *Harness, p []int64) (any, error)
}

// memoOf builds a memoDef whose value has type T. compute receives the
// harness that asked and the key's integer parameters.
func memoOf[T any](kind, cat string, params int, compute func(h *Harness, p []int64) (T, error)) memoDef {
	return memoDef{
		kind: kind, cat: cat, params: params,
		get: func(rc *runcache.Cache, key string) (any, bool) {
			var v T
			ok := rc.Get(kind, key, &v)
			return v, ok
		},
		compute: func(h *Harness, p []int64) (any, error) { return compute(h, p) },
	}
}

// memoDefs maps each memo name — the first "|" field of its key — to its
// definition. The corpus memos take (size, seed) from the key.
var memoDefs = map[string]memoDef{
	"matrix-corpus": memoOf(runcache.KindFeatures, "coverage", 2,
		func(_ *Harness, p []int64) ([][]float64, error) { return matrixCorpusFeatures(int(p[0]), p[1]), nil }),
	"bfs-relabel": memoOf(runcache.KindAblation, "ablation", 0,
		func(*Harness, []int64) ([]AblationRow, error) { return AblateBFSRelabel() }),
	"graph-corpus": memoOf(runcache.KindFeatures, "coverage", 2,
		func(_ *Harness, p []int64) ([][]float64, error) { return graphCorpusFeatures(int(p[0]), p[1]), nil }),
	"dasp-padding": memoOf(runcache.KindAblation, "ablation", 0,
		func(*Harness, []int64) ([]AblationRow, error) { return AblateDASPPadding() }),
	"matrix-reps": memoOf(runcache.KindFeatures, "coverage", 0,
		func(*Harness, []int64) ([][]float64, error) { return matrixRepFeatures() }),
	"graph-reps": memoOf(runcache.KindFeatures, "coverage", 0,
		func(*Harness, []int64) ([][]float64, error) { return graphRepFeatures() }),
	"table6": withInputs(memoOf(runcache.KindAccuracy, "accuracy", 0,
		func(h *Harness, _ []int64) ([]accuracy.Row, error) { return table6Rows(h) }),
		(*Harness).keysTable6),
}

// withInputs returns d reading the run keys inputs lists.
func withInputs(d memoDef, inputs func(h *Harness) []RunKey) memoDef {
	d.inputs = inputs
	return d
}

// corpusKey is the memo key of a Figure 10 corpus's feature matrix.
func corpusKey(name string, size int, seed int64) string {
	return fmt.Sprintf("%s|%d|%d", name, size, seed)
}

// memoPlanKey is the plan key of the memo stored under key.
func memoPlanKey(key string) RunKey {
	name, _, _ := strings.Cut(key, "|")
	return RunKey{Workload: memoDefs[name].cat, Case: key, Variant: MemoVariant}
}

// parseMemoKey resolves a memo's run-cache key to its definition and its
// integer parameters, written in canonical decimal.
func parseMemoKey(key string) (memoDef, []int64, error) {
	fields := strings.Split(key, "|")
	d, ok := memoDefs[fields[0]]
	if !ok || len(fields)-1 != d.params {
		return memoDef{}, nil, fmt.Errorf("unknown memo %q", key)
	}
	p := make([]int64, d.params)
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil || strconv.FormatInt(v, 10) != f {
			return memoDef{}, nil, fmt.Errorf("memo %q: parameter %q is not a decimal integer", key, f)
		}
		p[i] = v
	}
	return d, p, nil
}

// resolveMemo resolves a memo plan key: its Case must name a memo and its
// Workload must be that memo's category.
func resolveMemo(k RunKey) (memoDef, error) {
	d, _, err := parseMemoKey(k.Case)
	if err == nil && k.Workload != d.cat {
		err = fmt.Errorf("memo %q belongs to %q", k.Case, d.cat)
	}
	if err != nil {
		return memoDef{}, fmt.Errorf("plan %s: %w", k, err)
	}
	return d, nil
}

// memo returns the value of the memo stored under key, as a T.
func memo[T any](h *Harness, key string) (T, error) {
	v, err := h.memoValue(key)
	t, _ := v.(T)
	return t, err
}

// memoValue returns the memo under key through its plan key's flight
// (do): from memory, else from the run cache, else computed and stored.
func (h *Harness) memoValue(key string) (any, error) {
	d, p, err := parseMemoKey(key)
	if err != nil {
		return nil, err
	}
	return h.do(memoPlanKey(key), func() (any, bool) {
		return d.get(h.rc, key)
	}, func() (any, error) {
		name, _, _ := strings.Cut(key, "|")
		v, err := d.run(h, name, p)
		if err == nil {
			par.DoLabeled(name, string(MemoVariant), "store", func() { h.rc.Put(d.kind, key, v) })
		}
		return v, err
	})
}

// run computes one memo for h inside a host span of its category, named by
// the memo's name, under pprof labels {workload: name, variant:
// MemoVariant, phase: category}; the par.ForTiles ranges it fans out
// inherit them.
func (d memoDef) run(h *Harness, name string, p []int64) (v any, err error) {
	metMemosComputed.Inc()
	defer trace.HostSpan(d.cat, name)()
	par.DoLabeled(name, string(MemoVariant), d.cat, func() { v, err = d.compute(h, p) })
	return v, err
}

// graphCorpusFeatures is the Figure 10a background: the feature vectors of
// a synthetic graph corpus.
func graphCorpusFeatures(size int, seed int64) [][]float64 {
	var feats [][]float64
	for _, g := range graph.Corpus(size, seed) {
		feats = append(feats, graph.ExtractFeatures(g).Vector())
	}
	return feats
}

// graphRepFeatures is the Figure 10a highlight: the Table 3 graphs' feature
// vectors.
func graphRepFeatures() ([][]float64, error) {
	var feats [][]float64
	for _, d := range graph.Table3() {
		g, err := graph.SynthesizeShared(d.Name)
		if err != nil {
			return nil, err
		}
		feats = append(feats, graph.ExtractFeatures(g).Vector())
	}
	return feats, nil
}

// matrixCorpusFeatures is the Figure 10b background: the corpus's
// features, computed from each matrix's draws and geometry without
// building it.
func matrixCorpusFeatures(size int, seed int64) [][]float64 {
	var feats [][]float64
	for _, f := range sparse.CorpusFeatures(size, seed) {
		feats = append(feats, f.Vector())
	}
	return feats
}

// matrixRepFeatures is the Figure 10b highlight: the Table 4 matrices'
// feature vectors.
func matrixRepFeatures() ([][]float64, error) {
	var feats [][]float64
	for _, d := range sparse.Table4() {
		m, err := sparse.SynthesizeShared(d.Name)
		if err != nil {
			return nil, err
		}
		feats = append(feats, sparse.ExtractFeatures(m).Vector())
	}
	return feats, nil
}
