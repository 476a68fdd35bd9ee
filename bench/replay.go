package main

// The per-layer replay. It calls each layer's public functions in the order
// a cold campaign reaches them, each call under a span recorded here, and
// derives the per-layer metrics from those spans and from counter deltas in
// the in-process metrics registry. Calls such as ToMBSR or ToDASP are made
// standalone on the campaign's inputs; in a real run they happen inside the
// kernels that need them. The replay is the same for every workload, so
// each workload's traced run reports every layer.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/runcache"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// The coverage corpus `cubie all` renders: the catalog's coverage entry
// calls Figure10Graphs(199, 1) and Figure10Matrices(199, 2).
const (
	corpusSize       = 199
	graphCorpusSeed  = 1
	matrixCorpusSeed = 2
)

// steadyApplies is how many operator applies spmv.apply_ms takes the
// median of, per matrix.
const steadyApplies = 5

const mib = 1 << 20

// layerSet collects per-layer values by metric name.
type layerSet map[string]float64

func (l layerSet) set(name string, v float64) { l[name] = v }

// metrics returns the values in layerNames order; a missing or unknown
// name is an error, so the code cannot drift from BENCHMARK.json silently.
func (l layerSet) metrics() ([]metric, error) {
	names := layerNames()
	out := make([]metric, 0, len(names))
	for _, n := range names {
		v, ok := l[n]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", n)
		}
		out = append(out, metric{n, v, unitOf(n), 1})
	}
	if len(l) != len(names) {
		return nil, fmt.Errorf("replay measured %d layer metrics, want %d", len(l), len(names))
	}
	return out, nil
}

// layerNames lists every per-layer metric in report order.
func layerNames() []string {
	names := []string{
		"sparse.synth_s", "graph.synth_s",
		"sparse.corpus_s", "graph.corpus_s",
		"sparse.features_s", "graph.features_s",
		"sparse.mbsr_s", "sparse.dasp_s", "graph.sliceset_s",
	}
	kernels, refs := planWorkloads()
	for _, w := range kernels {
		names = append(names, "kernels."+w+"_s")
	}
	for _, w := range refs {
		names = append(names, "reference."+w+"_s")
	}
	names = append(names,
		"mmu.dmma_tiles", "mmu.bmma_ops",
		"packcache.hits", "packcache.misses", "packcache.mb",
		"prestage.slabs", "prestage.mb",
		"par.tasks", "par.stolen",
		"harness.runs_started",
		"runcache.get_s", "runcache.read_mb", "runcache.hits",
		"runcache.put_s", "runcache.written_mb",
	)
	for _, f := range figureNames() {
		names = append(names, "harness.render."+f+"_s")
	}
	names = append(names, "harness.runs_cached", "server.boot_ms")
	for _, f := range figureNames() {
		names = append(names, "server.first."+f+"_ms")
	}
	return append(names,
		"server.figure_cache_hits", "server.figure_cache_misses",
		"spmv.build_ms", "spmv.first_apply_ms", "spmv.apply_ms", "cg.iters",
		"replay_s", "replay_accounted_frac", "trace_overhead_frac",
	)
}

// unitOf derives a layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	}
	return "count"
}

// planWorkloads lists the suite's workloads, and those with CPU-serial
// reference keys in the whole-campaign plan, in suite order.
func planWorkloads() (all, withRef []string) {
	h := harness.New()
	ref := map[string]bool{}
	for _, k := range h.PlanAll() {
		if k.Variant == harness.RefVariant {
			ref[k.Workload] = true
		}
	}
	for _, w := range h.Suite.Workloads() {
		all = append(all, w.Name())
		if ref[w.Name()] {
			withRef = append(withRef, w.Name())
		}
	}
	return all, withRef
}

// planKeys returns the whole-campaign plan without duplicates, in plan
// order.
func planKeys() []harness.RunKey {
	seen := map[harness.RunKey]bool{}
	var keys []harness.RunKey
	for _, k := range harness.New().PlanAll() {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// replayer is one replay: each step opens its spans under root and sets
// its metrics in ls.
type replayer struct {
	b    *bench
	root span
	ls   layerSet
	rc   *runcache.Cache // the filled run cache, under its writer's fingerprint
	fp   string
}

// span opens a span of layer under the replay's root.
func (r *replayer) span(layer, name string) span { return r.root.t.begin(r.root, layer, name) }

// replay runs every layer step under one root span on tr and returns the
// layer metrics, trace_overhead_frac excepted. It reads b.filled.
func (b *bench) replay(tr *tracer) (layerSet, error) {
	rc, fp, err := openFilled(b.filled)
	if err != nil {
		return nil, err
	}
	r := &replayer{b: b, root: tr.begin(span{}, "replay", "replay"), ls: layerSet{}, rc: rc, fp: fp}
	for _, step := range []func() error{
		r.datasets, r.coverage, r.layouts, r.kernels, r.runCache, r.render, r.server, r.spmv,
	} {
		if err := step(); err != nil {
			r.root.end()
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	d := r.root.end()
	r.ls.set("replay_s", d.Seconds())
	r.ls.set("replay_accounted_frac", r.root.childTime().Seconds()/d.Seconds())
	return r.ls, nil
}

// openFilled opens a run cache a cubie subprocess filled. Entries are bound
// to the writer's fingerprint, a hash of its executable that this process
// does not share, so the fingerprint is read back from one entry.
func openFilled(dir string) (*runcache.Cache, string, error) {
	names, err := filepath.Glob(filepath.Join(dir, runcache.KindResult+"-*.json"))
	if err != nil || len(names) == 0 {
		return nil, "", fmt.Errorf("no result entries in %s", dir)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		return nil, "", err
	}
	var env struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Fingerprint == "" {
		return nil, "", fmt.Errorf("%s: no fingerprint", names[0])
	}
	rc, err := runcache.OpenWithFingerprint(dir, env.Fingerprint)
	return rc, env.Fingerprint, err
}

// datasets synthesizes the Table 4 matrices and Table 3 graphs into the
// process-wide caches every later step shares.
func (r *replayer) datasets() error {
	var t time.Duration
	for _, d := range sparse.Table4() {
		sp := r.span("sparse", "synth "+d.Name)
		_, err := sparse.SynthesizeShared(d.Name)
		t += sp.end()
		if err != nil {
			return err
		}
	}
	r.ls.set("sparse.synth_s", t.Seconds())
	t = 0
	for _, d := range graph.Table3() {
		sp := r.span("graph", "synth "+d.Name)
		_, err := graph.SynthesizeShared(d.Name)
		t += sp.end()
		if err != nil {
			return err
		}
	}
	r.ls.set("graph.synth_s", t.Seconds())
	return nil
}

// coverage builds the Figure 10 corpora and extracts their features.
func (r *replayer) coverage() error {
	sp := r.span("sparse", "corpus")
	mats := sparse.Corpus(corpusSize, matrixCorpusSeed)
	r.ls.set("sparse.corpus_s", sp.end().Seconds())
	sp = r.span("sparse", "features")
	for _, m := range mats {
		sparse.ExtractFeatures(m)
	}
	r.ls.set("sparse.features_s", sp.end().Seconds())

	sp = r.span("graph", "corpus")
	graphs := graph.Corpus(corpusSize, graphCorpusSeed)
	r.ls.set("graph.corpus_s", sp.end().Seconds())
	sp = r.span("graph", "features")
	for _, g := range graphs {
		graph.ExtractFeatures(g)
	}
	r.ls.set("graph.features_s", sp.end().Seconds())
	return nil
}

// layouts builds each tensor-core layout once on the shared datasets.
func (r *replayer) layouts() error {
	var mbsr, dasp, sliceSets time.Duration
	for _, d := range sparse.Table4() {
		m, err := sparse.SynthesizeShared(d.Name)
		if err != nil {
			return err
		}
		sp := r.span("sparse", "mbsr "+d.Name)
		sparse.ToMBSR(m)
		mbsr += sp.end()
		sp = r.span("sparse", "dasp "+d.Name)
		sparse.ToDASP(m).Prestage()
		dasp += sp.end()
	}
	for _, d := range graph.Table3() {
		g, err := graph.SynthesizeShared(d.Name)
		if err != nil {
			return err
		}
		sp := r.span("graph", "sliceset "+d.Name)
		graph.ToSliceSet(g)
		sliceSets += sp.end()
	}
	r.ls.set("sparse.mbsr_s", mbsr.Seconds())
	r.ls.set("sparse.dasp_s", dasp.Seconds())
	r.ls.set("graph.sliceset_s", sliceSets.Seconds())
	return nil
}

// counterValues reads the in-process counters the kernels step reports as
// deltas.
func counterValues() map[string]float64 {
	sharded := func(name string) float64 { return float64(metrics.NewShardedCounter(name, "").Value()) }
	return map[string]float64{
		"mmu.dmma_tiles":       sharded("cubie_mmu_dmma_tiles_total"),
		"mmu.bmma_ops":         sharded("cubie_mmu_bmma_ops_total"),
		"packcache.hits":       counter("cubie_packcache_hits_total"),
		"packcache.misses":     counter("cubie_packcache_misses_total"),
		"prestage.slabs":       counter("cubie_prestage_slabs_total"),
		"prestage.mb":          counter("cubie_prestage_bytes_total") / mib,
		"par.tasks":            counter("cubie_par_tasks_total"),
		"par.stolen":           counter("cubie_par_tasks_stolen_total"),
		"harness.runs_started": counter("cubie_harness_runs_started_total"),
	}
}

// counter reads one in-process counter. The instrumented packages register
// their series at init, so this finds the existing one.
func counter(name string) float64 { return float64(metrics.NewCounter(name, "").Value()) }

// kernels executes every whole-campaign plan key serially through
// Harness.ExecuteKey on a harness with no run cache, summing the time per
// workload. Each workload gets a fresh harness, so only one workload's
// results are held at a time.
func (r *replayer) kernels() error {
	keys := planKeys()
	before := counterValues()
	all, withRef := planWorkloads()
	for _, w := range all {
		h := harness.New()
		var run, ref time.Duration
		for _, k := range keys {
			if k.Workload != w {
				continue
			}
			layer := "kernels"
			if k.Variant == harness.RefVariant {
				layer = "reference"
			}
			r.b.attempted++
			sp := r.span(layer, k.String())
			err := h.ExecuteKey(k)
			d := sp.end()
			if err != nil {
				return err
			}
			if layer == "kernels" {
				run += d
			} else {
				ref += d
			}
		}
		r.ls.set("kernels."+w+"_s", run.Seconds())
		if slices.Contains(withRef, w) {
			r.ls.set("reference."+w+"_s", ref.Seconds())
		}
	}
	for name, v := range counterValues() {
		r.ls.set(name, v-before[name])
	}
	r.ls.set("packcache.mb", metrics.NewGauge("cubie_packcache_bytes", "").Value()/mib)
	return nil
}

// runCache reads every plan entry from the filled cache, then writes the
// same entries into a scratch cache.
func (r *replayer) runCache() error {
	keys := planKeys()
	results := make([]*workload.Result, len(keys))
	refs := make([][]float64, len(keys))

	hits0, read0 := counter("cubie_runcache_hits_total"), counter("cubie_runcache_read_bytes_total")
	var get time.Duration
	for i, k := range keys {
		r.b.attempted++
		ok := false
		sp := r.span("runcache", "get "+k.String())
		if k.Variant == harness.RefVariant {
			refs[i], ok = r.rc.GetFloats(runcache.KindReference, runcache.ResultKey(k.Workload, k.Case, string(k.Variant)))
		} else {
			results[i], ok = r.rc.GetResult(k.Workload, k.Case, string(k.Variant))
		}
		get += sp.end()
		if !ok {
			r.b.fail(fmt.Errorf("runcache: %s missing from the filled cache", k))
		}
	}
	r.ls.set("runcache.get_s", get.Seconds())
	r.ls.set("runcache.hits", counter("cubie_runcache_hits_total")-hits0)
	r.ls.set("runcache.read_mb", (counter("cubie_runcache_read_bytes_total")-read0)/mib)

	dir, err := os.MkdirTemp(r.b.dir, "put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	scratch, err := runcache.OpenWithFingerprint(dir, r.fp)
	if err != nil {
		return err
	}
	written0 := counter("cubie_runcache_written_bytes_total")
	var put time.Duration
	for i, k := range keys {
		sp := r.span("runcache", "put "+k.String())
		if k.Variant == harness.RefVariant {
			scratch.PutFloats(runcache.KindReference, runcache.ResultKey(k.Workload, k.Case, string(k.Variant)), refs[i])
		} else {
			scratch.PutResult(k.Workload, k.Case, string(k.Variant), results[i])
		}
		put += sp.end()
	}
	r.ls.set("runcache.put_s", put.Seconds())
	r.ls.set("runcache.written_mb", (counter("cubie_runcache_written_bytes_total")-written0)/mib)
	return nil
}

// render renders each `cubie all` figure, in catalog order, on a harness
// attached to the filled cache, and checks each against its golden digest.
func (r *replayer) render() error {
	h := harness.New().AttachCache(r.rc)
	cached0 := counter("cubie_harness_runs_cached_total")
	for _, name := range figureNames() {
		r.b.attempted++
		sum := sha256.New()
		sp := r.span("harness", "render "+name)
		err := h.RenderFigure(sum, name)
		r.ls.set("harness.render."+name+"_s", sp.end().Seconds())
		if err == nil {
			err = r.b.golden.checkSum(name, sum.Sum(nil))
		}
		r.b.check(err)
	}
	r.ls.set("harness.runs_cached", counter("cubie_harness_runs_cached_total")-cached0)
	return nil
}

// server boots a daemon on the filled cache, requests every figure twice
// (first renders, then hot-layer hits), and scrapes its figure-cache
// counters.
func (r *replayer) server() error {
	names := figureNames()
	p, ok := r.b.firstPass(names, r.root.t, r.root)
	if p.d == nil {
		return fmt.Errorf("daemon did not boot")
	}
	defer func() {
		sp := r.span("server", "drain")
		p.d.stop()
		sp.end()
	}()
	if !ok {
		return fmt.Errorf("first pass failed")
	}
	r.ls.set("server.boot_ms", float64(p.boot.Nanoseconds())/1e6)
	for i, name := range names {
		r.ls.set("server.first."+name+"_ms", float64(p.figs[i].Nanoseconds())/1e6)
	}
	for _, name := range names {
		r.b.attempted++
		sp := r.span("server", "hit "+name)
		body, err := p.d.figure(name)
		sp.end()
		if err == nil && !bytes.Equal(body, r.b.bodies[name]) {
			err = fmt.Errorf("figure %s: second response differs from the first", name)
		}
		r.b.check(err)
	}
	sp := r.span("server", "metrics")
	vals, err := p.d.scrape()
	sp.end()
	if err != nil {
		return err
	}
	for metric, series := range map[string]string{
		"server.figure_cache_hits":   "cubie_server_figure_cache_hits_total",
		"server.figure_cache_misses": "cubie_server_figure_cache_misses_total",
	} {
		v, ok := vals[series]
		if !ok {
			return fmt.Errorf("/metrics has no %s", series)
		}
		r.ls.set(metric, v)
	}
	return nil
}

// spmv builds the CG systems, times steady operator applies, and counts
// the CG iterations of one solve per system.
func (r *replayer) spmv() error {
	sys, t, err := buildCG(matrixNames(), r.b.seed, r.root.t, r.root)
	if err != nil {
		return err
	}
	r.ls.set("spmv.build_ms", float64(t.build.Nanoseconds())/1e6)
	r.ls.set("spmv.first_apply_ms", float64(t.firstApply.Nanoseconds())/1e6)
	var apply float64
	iters := 0
	for _, s := range sys {
		ds := make([]float64, steadyApplies)
		for i := range ds {
			sp := r.span("spmv", "apply "+s.name)
			s.op.Apply(s.xTrue)
			ds[i] = float64(sp.end().Nanoseconds()) / 1e6
		}
		apply += median(ds)

		r.b.attempted++
		sp := r.span("cg", "solve "+s.name)
		x, n, err := cgSolve(s, r.root.t, sp)
		sp.end()
		if err == nil {
			err = s.check(x)
		}
		r.b.check(err)
		iters += n
	}
	r.ls.set("spmv.apply_ms", apply)
	r.ls.set("cg.iters", float64(iters))
	return nil
}
