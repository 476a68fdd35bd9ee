package harness

// Memoized dataset values. Some results are pure functions of seeded
// datasets rather than workload runs: the Figure 10 corpus and
// representative feature matrices, and the dataset-level ablation arms.
// Each has one definition in memoDefs, keyed by its name. A memo is also a
// plan key (MemoVariant), so the plan executor schedules it on the same
// pool as the runs, and a `cubie dist` worker can compute it; renderers
// read it through memo. Both paths meet in one in-memory flight per key,
// so a process reads or computes each memo at most once.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/metrics"
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
// parameters its key carries after the name, its traced cost, and how to
// read and compute it.
type memoDef struct {
	kind, cat string
	params    int
	// secs is the value's traced compute time in a cold `cubie all` on a
	// 2-vCPU Xeon (corpora at size 199); the plan executor starts memos
	// longest first by it.
	secs    float64
	get     func(rc *runcache.Cache, key string) (any, bool)
	compute func(p []int64) (any, error)
}

// memoOf builds a memoDef whose value has type T.
func memoOf[T any](kind, cat string, params int, secs float64, compute func(p []int64) (T, error)) memoDef {
	return memoDef{
		kind: kind, cat: cat, params: params, secs: secs,
		get: func(rc *runcache.Cache, key string) (any, bool) {
			var v T
			ok := rc.Get(kind, key, &v)
			return v, ok
		},
		compute: func(p []int64) (any, error) { return compute(p) },
	}
}

// memoDefs maps each memo name — the first "|" field of its key — to its
// definition. The corpus memos take (size, seed) from the key.
var memoDefs = map[string]memoDef{
	"matrix-corpus": memoOf(runcache.KindFeatures, "coverage", 2, 2.77,
		func(p []int64) ([][]float64, error) { return matrixCorpusFeatures(int(p[0]), p[1]), nil }),
	"bfs-relabel": memoOf(runcache.KindAblation, "ablation", 0, 0.68,
		func([]int64) ([]AblationRow, error) { return AblateBFSRelabel() }),
	"graph-corpus": memoOf(runcache.KindFeatures, "coverage", 2, 0.48,
		func(p []int64) ([][]float64, error) { return graphCorpusFeatures(int(p[0]), p[1]), nil }),
	"dasp-padding": memoOf(runcache.KindAblation, "ablation", 0, 0.06,
		func([]int64) ([]AblationRow, error) { return AblateDASPPadding() }),
	"matrix-reps": memoOf(runcache.KindFeatures, "coverage", 0, 0.03,
		func([]int64) ([][]float64, error) { return matrixRepFeatures() }),
	"graph-reps": memoOf(runcache.KindFeatures, "coverage", 0, 0.01,
		func([]int64) ([][]float64, error) { return graphRepFeatures() }),
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

// memo returns the value of the memo stored under key. It is the only
// read-or-compute path for memoized values.
func memo[T any](h *Harness, key string) (T, error) {
	v, err := h.memoValue(key)
	t, _ := v.(T)
	return t, err
}

// memoValue returns the memo under key from this process's flight, else
// from the run cache, else computes and stores it. Concurrent callers
// share one flight; a failed computation is evicted so a later caller can
// retry. A nil harness (the package-level figure functions) computes
// without caching.
func (h *Harness) memoValue(key string) (any, error) {
	d, p, err := parseMemoKey(key)
	if err != nil {
		return nil, err
	}
	if h == nil {
		return d.run(key, p)
	}
	h.mu.Lock()
	if f, ok := h.memos[key]; ok {
		h.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	h.memos[key] = f
	h.mu.Unlock()
	defer close(f.done)

	if v, ok := d.get(h.rc, key); ok {
		f.val = v
		return v, nil
	}
	f.val, f.err = d.run(key, p)
	if f.err != nil {
		h.mu.Lock()
		delete(h.memos, key)
		h.mu.Unlock()
		return nil, f.err
	}
	h.rc.Put(d.kind, key, f.val)
	return f.val, nil
}

// run computes one memo inside a host span of its category, named by the
// memo's name.
func (d memoDef) run(key string, p []int64) (any, error) {
	metMemosComputed.Inc()
	name, _, _ := strings.Cut(key, "|")
	defer trace.HostSpan(d.cat, name)()
	return d.compute(p)
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

// matrixCorpusFeatures is the Figure 10b background, streamed one matrix at
// a time.
func matrixCorpusFeatures(size int, seed int64) [][]float64 {
	var feats [][]float64
	sparse.CorpusEach(size, seed, func(m *sparse.CSR) {
		feats = append(feats, sparse.ExtractFeatures(m).Vector())
	})
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
