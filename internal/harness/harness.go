// Package harness drives the paper's experiments end to end: it runs every
// workload variant on the simulated devices and assembles the exact rows
// and series behind Figures 3–12 and Tables 6–7. The cmd/cubie CLI and the
// top-level benchmarks print these structures.
//
// # Concurrency and observability
//
// A Harness is safe for concurrent use. Workload executions are cached
// per (workload, case, variant) key with singleflight semantics: the first
// caller runs the kernel, concurrent callers for the same key block on its
// completion and share the outcome, and a failed run is evicted so a later
// caller can retry. Every figure driver first enumerates the run keys it
// needs (plan.go), executes the deduplicated plan on a bounded worker set
// in longest-estimated-first order, then assembles its rows serially in
// deterministic grid order — harness output is independent of scheduling
// (the same property internal/par guarantees one level down).
//
// # Persistent run cache
//
// When a runcache.Cache is attached (AttachCache; the cubie CLI attaches
// the CUBIE_CACHE-selected cache), completed executions are persisted on
// disk and later processes load them instead of re-running: a warm
// `cubie all` starts zero workload executions
// (cubie_harness_runs_started_total stays 0) yet emits byte-identical
// output, because every run is deterministic (determinism_test.go).
//
// Every execution is instrumented (docs/OBSERVABILITY.md): runs started /
// deduplicated / cached / failed / retried counters, a per-workload
// wall-time histogram (cubie_harness_run_seconds{workload=...}) resolved
// once per workload at construction, runtime/pprof labels {workload,
// variant, phase} via par.DoLabeled so CPU profiles attribute samples to
// kernels, and — when host tracing is active — one trace.HostSpan per
// kernel execution.
package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/accuracy"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/roofline"
	"repro/internal/runcache"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Harness execution metrics (see docs/OBSERVABILITY.md).
var (
	metRunsStarted = metrics.NewCounter("cubie_harness_runs_started_total",
		"Workload executions the harness actually started (cache misses).")
	metRunsDeduped = metrics.NewCounter("cubie_harness_runs_deduped_total",
		"Run requests served by the singleflight cache (joined an in-flight execution or reused a completed one).")
	metRunsCached = metrics.NewCounter("cubie_harness_runs_cached_total",
		"Run requests served by the persistent run cache (loaded from disk, no execution).")
	metRunsFailed = metrics.NewCounter("cubie_harness_runs_failed_total",
		"Workload executions that returned an error (evicted for retry).")
	metRunsRetried = metrics.NewCounter("cubie_harness_runs_retried_total",
		"Executions re-started for a key whose previous run failed.")
)

// runSeconds returns the per-workload wall-time histogram. The Harness
// resolves it once per workload (New / runSecondsFor) instead of paying
// the registry lookup on every execution.
func runSeconds(workloadName string) *metrics.Histogram {
	return metrics.NewHistogram("cubie_harness_run_seconds",
		"Host wall-clock seconds of one workload-variant execution (Go arithmetic, not simulated device time).",
		metrics.DefTimeBuckets, metrics.Label{Key: "workload", Value: workloadName})
}

// Harness caches workload runs so each (workload, case, variant) executes
// once across all experiments — in memory within the process, and on disk
// across processes when a run cache is attached.
type Harness struct {
	Suite *core.Suite

	mu      sync.Mutex
	cache   map[string]*flight
	memos   map[string]*flight // memo flights by run-cache key (memo.go)
	failed  map[string]bool    // keys whose last execution errored
	planned map[RunKey]bool    // plans fully executed (Execute's fast path)

	keysMu   sync.Mutex
	keyCache map[string][]RunKey // memoized plan enumerations (keysMemo)

	rc *runcache.Cache // persistent run cache; nil = in-memory only

	histMu sync.Mutex
	hist   map[string]*metrics.Histogram // per-workload run_seconds, resolved once
}

// flight is one singleflight cache entry: the first caller for a key owns
// the execution; later callers block on done and share the outcome.
type flight struct {
	done chan struct{}
	res  *workload.Result // a run's or reference's result
	val  any              // a memo's value
	err  error
}

// New creates a harness over a fresh suite, without a persistent cache
// (AttachCache opts in).
func New() *Harness {
	h := &Harness{
		Suite:    core.NewSuite(),
		cache:    map[string]*flight{},
		memos:    map[string]*flight{},
		failed:   map[string]bool{},
		planned:  map[RunKey]bool{},
		keyCache: map[string][]RunKey{},
		hist:     map[string]*metrics.Histogram{},
	}
	// Resolve the per-workload latency histograms once, up front: the run
	// path then observes into a cached pointer instead of re-resolving the
	// instrument through the registry on every execution.
	for _, w := range h.Suite.Workloads() {
		h.hist[w.Name()] = runSeconds(w.Name())
	}
	return h
}

// AttachCache binds a persistent run cache (nil detaches) and returns h.
// Completed executions are written through; later runs — in this process
// or any other with the same code fingerprint — load them instead of
// executing.
func (h *Harness) AttachCache(c *runcache.Cache) *Harness {
	h.rc = c
	return h
}

// RunCache returns the attached persistent run cache (nil when detached).
// The serve daemon's cache-store endpoints read and write entries through
// it.
func (h *Harness) RunCache() *runcache.Cache {
	return h.rc
}

// runSecondsFor returns the cached per-workload histogram, resolving and
// memoizing it for workloads outside the suite (tests inject those).
func (h *Harness) runSecondsFor(workloadName string) *metrics.Histogram {
	h.histMu.Lock()
	hg := h.hist[workloadName]
	if hg == nil {
		hg = runSeconds(workloadName)
		h.hist[workloadName] = hg
	}
	h.histMu.Unlock()
	return hg
}

// run executes (or returns the cached) result for one workload/case/variant.
// Concurrent callers with the same key are deduplicated: exactly one
// executes w.Run, the rest wait for it (the old check-then-run pattern let
// Figure3's fan-out and a concurrent speedups walk both execute the same
// case). A failed run is evicted so a later caller may retry. With a
// persistent cache attached, a key is first looked up on disk — a hit is
// not an execution — and a completed execution is written through.
func (h *Harness) run(w workload.Workload, c workload.Case, v workload.Variant) (*workload.Result, error) {
	key := w.Name() + "|" + c.Name + "|" + string(v)
	h.mu.Lock()
	if f, ok := h.cache[key]; ok {
		h.mu.Unlock()
		metRunsDeduped.Inc()
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	h.cache[key] = f
	retry := h.failed[key]
	delete(h.failed, key)
	h.mu.Unlock()

	if res, ok := h.rc.GetResult(w.Name(), c.Name, string(v)); ok {
		metRunsCached.Inc()
		f.res = res
		close(f.done)
		return f.res, nil
	}

	metRunsStarted.Inc()
	if retry {
		metRunsRetried.Inc()
	}
	endSpan := trace.HostSpan("harness-run", key)
	t0 := time.Now()
	par.DoLabeled(w.Name(), string(v), "run", func() {
		f.res, f.err = w.Run(c, v)
	})
	h.runSecondsFor(w.Name()).Observe(time.Since(t0).Seconds())
	endSpan()
	if f.err != nil {
		metRunsFailed.Inc()
		h.mu.Lock()
		delete(h.cache, key)
		h.failed[key] = true
		h.mu.Unlock()
	} else {
		h.rc.PutResult(w.Name(), c.Name, string(v), cacheable(w, c, f.res))
	}
	close(f.done)
	return f.res, f.err
}

// cacheable returns the result to persist for one execution. Only the
// accuracy analysis (Table 6) ever reads Output, and it replays just the
// representative case — every figure consumes Profile, Work, and the
// utilization fields. Dropping the other cases' output arrays keeps the
// cache (and the cold run's write cost) at megabytes instead of the
// ~800 MB the full grid's outputs occupy.
func cacheable(w workload.Workload, c workload.Case, res *workload.Result) *workload.Result {
	if res == nil || res.Output == nil || c.Name == w.Representative().Name {
		return res
	}
	trimmed := *res
	trimmed.Output = nil
	return &trimmed
}

// reference computes (or returns the cached) CPU-serial ground truth of
// one workload case — the Table 6 baseline. References run through the
// same singleflight cache as variant executions, under the pseudo-variant
// RefVariant, and persist to the run cache: a warm Table 6 re-runs
// nothing, not even the serial CPU references.
func (h *Harness) reference(w workload.Workload, c workload.Case) ([]float64, error) {
	key := w.Name() + "|" + c.Name + "|" + string(RefVariant)
	h.mu.Lock()
	if f, ok := h.cache[key]; ok {
		h.mu.Unlock()
		metRunsDeduped.Inc()
		<-f.done
		return refOutput(f)
	}
	f := &flight{done: make(chan struct{})}
	h.cache[key] = f
	retry := h.failed[key]
	delete(h.failed, key)
	h.mu.Unlock()

	rcKey := runcache.ResultKey(w.Name(), c.Name, string(RefVariant))
	if out, ok := h.rc.GetFloats(runcache.KindReference, rcKey); ok {
		metRunsCached.Inc()
		f.res = &workload.Result{Output: out}
		close(f.done)
		return out, nil
	}

	metRunsStarted.Inc()
	if retry {
		metRunsRetried.Inc()
	}
	endSpan := trace.HostSpan("harness-run", key)
	t0 := time.Now()
	var out []float64
	var err error
	par.DoLabeled(w.Name(), string(RefVariant), "run", func() {
		out, err = w.Reference(c)
	})
	h.runSecondsFor(w.Name()).Observe(time.Since(t0).Seconds())
	endSpan()
	if err != nil {
		f.err = err
		metRunsFailed.Inc()
		h.mu.Lock()
		delete(h.cache, key)
		h.failed[key] = true
		h.mu.Unlock()
	} else {
		f.res = &workload.Result{Output: out}
		h.rc.PutFloats(runcache.KindReference, rcKey, out)
	}
	close(f.done)
	return out, err
}

// refOutput unwraps a reference flight.
func refOutput(f *flight) ([]float64, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.res.Output, nil
}

// RunOne executes a single (workload, case, variant) through the harness
// cache — the entry point behind `cubie run`. An empty caseName selects the
// workload's representative case. The returned Case reports what actually
// ran.
func (h *Harness) RunOne(workloadName, caseName string, v workload.Variant) (workload.Case, *workload.Result, error) {
	w, err := h.Suite.ByName(workloadName)
	if err != nil {
		return workload.Case{}, nil, err
	}
	c := w.Representative()
	if caseName != "" {
		if c, err = workload.FindCase(w, caseName); err != nil {
			return workload.Case{}, nil, err
		}
	}
	if !workload.HasVariant(w, v) {
		return workload.Case{}, nil, fmt.Errorf("workload %s: variant %q not implemented (have %v)",
			w.Name(), v, w.Variants())
	}
	res, err := h.run(w, c, v)
	return c, res, err
}

// PerfCell is one marker of Figure 3: absolute performance of one workload
// variant on one test case and device.
type PerfCell struct {
	Workload   string
	Quadrant   int
	Case       string
	Variant    workload.Variant
	Device     string
	TimeS      float64
	Throughput float64 // Work / time, in Metric units ×1e9
	Metric     string
	Bottleneck string
}

// Figure3 produces the full performance grid: every workload × five cases ×
// all variants × the given devices. The deduplicated run plan executes on
// a worker pool sized to the host's cores (Execute); the rows are then
// assembled in deterministic grid order regardless of scheduling.
func (h *Harness) Figure3(devices []device.Spec) ([]PerfCell, error) {
	if err := h.Execute(h.keysFigure3()); err != nil {
		return nil, err
	}
	var out []PerfCell
	for _, w := range h.Suite.Workloads() {
		for _, c := range w.Cases() {
			for _, v := range w.Variants() {
				res, err := h.run(w, c, v)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", w.Name(), c.Name, v, err)
				}
				for _, spec := range devices {
					r := sim.Run(spec, res.Profile)
					out = append(out, PerfCell{
						Workload:   w.Name(),
						Quadrant:   w.Quadrant(),
						Case:       c.Name,
						Variant:    v,
						Device:     spec.Name,
						TimeS:      r.Time,
						Throughput: res.Work / r.Time / 1e9,
						Metric:     res.MetricName,
						Bottleneck: r.Bottleneck,
					})
				}
			}
		}
	}
	return out, nil
}

// SpeedupRow is one bar of Figures 4–6: the case-averaged speedup of one
// variant pair for one workload on one device.
type SpeedupRow struct {
	Workload string
	Quadrant int
	Device   string
	Speedup  float64 // averaged across the five test cases
}

// speedups computes time(den)/time(num) averaged over the cases, for
// workloads implementing both variants. The runs execute as one parallel
// plan; the averages are assembled serially from the cache.
func (h *Harness) speedups(num, den workload.Variant, devices []device.Spec) ([]SpeedupRow, error) {
	if err := h.Execute(h.keysSpeedups(num, den)); err != nil {
		return nil, err
	}
	var out []SpeedupRow
	for _, w := range h.Suite.Workloads() {
		if !workload.HasVariant(w, num) || !workload.HasVariant(w, den) {
			continue
		}
		for _, spec := range devices {
			var sum float64
			var n int
			for _, c := range w.Cases() {
				rNum, err := h.run(w, c, num)
				if err != nil {
					return nil, err
				}
				rDen, err := h.run(w, c, den)
				if err != nil {
					return nil, err
				}
				tNum := sim.Run(spec, rNum.Profile).Time
				tDen := sim.Run(spec, rDen.Profile).Time
				sum += tDen / tNum
				n++
			}
			out = append(out, SpeedupRow{
				Workload: w.Name(),
				Quadrant: w.Quadrant(),
				Device:   spec.Name,
				Speedup:  sum / float64(n),
			})
		}
	}
	return out, nil
}

// Figure4 returns the TC-over-baseline speedups (grouped by quadrant).
func (h *Harness) Figure4(devices []device.Spec) ([]SpeedupRow, error) {
	return h.speedups(workload.TC, workload.Baseline, devices)
}

// Figure5 returns the CC-over-TC speedups.
func (h *Harness) Figure5(devices []device.Spec) ([]SpeedupRow, error) {
	return h.speedups(workload.CC, workload.TC, devices)
}

// Figure6 returns the CC-E-over-TC speedups (Quadrants II–IV only, since
// CC-E ≡ CC in Quadrant I).
func (h *Harness) Figure6(devices []device.Spec) ([]SpeedupRow, error) {
	return h.speedups(workload.CCE, workload.TC, devices)
}

// EDPRow is one bar of Figure 7: the energy-delay product of one variant's
// representative-case measurement loop.
type EDPRow struct {
	Workload string
	Quadrant int
	Variant  workload.Variant
	Repeats  int
	TimeS    float64 // full measurement loop
	AvgPower float64
	EnergyJ  float64
	EDP      float64 // AvgPower × TimeS² (kernel-only window)
}

// powerCase returns the test case used for the power and EDP experiments:
// the workload's largest case, so the measurement loops run for seconds at
// realistic utilization (the paper's Figure 8 traces span 1–15 s).
func powerCase(w workload.Workload) workload.Case {
	cs := w.Cases()
	return cs[len(cs)-1]
}

// Figure7 computes the EDP comparison on one device (the paper uses H200)
// with the per-workload repeat counts from its caption, plus the
// per-quadrant geomeans of the TC-vs-baseline EDP ratio.
func (h *Harness) Figure7(spec device.Spec) ([]EDPRow, map[int]float64, error) {
	if err := h.Execute(h.keysPower()); err != nil {
		return nil, nil, err
	}
	var rows []EDPRow
	byWQ := map[string]map[workload.Variant]float64{}
	for _, w := range h.Suite.Workloads() {
		byWQ[w.Name()] = map[workload.Variant]float64{}
		for _, v := range w.Variants() {
			res, err := h.run(w, powerCase(w), v)
			if err != nil {
				return nil, nil, err
			}
			r := sim.Run(spec, res.Profile)
			tr := power.Record(spec, r, w.Repeats())
			row := EDPRow{
				Workload: w.Name(),
				Quadrant: w.Quadrant(),
				Variant:  v,
				Repeats:  w.Repeats(),
				TimeS:    tr.TotalTimeS,
				AvgPower: tr.AveragePower(),
				EnergyJ:  tr.Energy(),
				EDP:      tr.EDP(),
			}
			rows = append(rows, row)
			byWQ[w.Name()][v] = row.EDP
		}
	}
	// Geomean of TC/baseline EDP ratios per quadrant.
	ratios := map[int][]float64{}
	for _, w := range h.Suite.Workloads() {
		m := byWQ[w.Name()]
		bl, okB := m[workload.Baseline]
		tc, okT := m[workload.TC]
		if okB && okT && bl > 0 {
			ratios[w.Quadrant()] = append(ratios[w.Quadrant()], tc/bl)
		}
	}
	geo := map[int]float64{}
	for q, rs := range ratios {
		geo[q] = power.Geomean(rs)
	}
	return rows, geo, nil
}

// Figure8 records the power-over-time traces of every workload variant's
// representative measurement loop on one device.
func (h *Harness) Figure8(spec device.Spec) ([]power.Trace, error) {
	if err := h.Execute(h.keysPower()); err != nil {
		return nil, err
	}
	var traces []power.Trace
	for _, w := range h.Suite.Workloads() {
		for _, v := range w.Variants() {
			res, err := h.run(w, powerCase(w), v)
			if err != nil {
				return nil, err
			}
			r := sim.Run(spec, res.Profile)
			tr := power.Record(spec, r, w.Repeats())
			tr.Workload = w.Name()
			tr.Variant = string(v)
			traces = append(traces, tr)
		}
	}
	return traces, nil
}

// Table6 measures the FP64 numerical errors of every floating-point
// workload against the CPU serial reference. The arithmetic in this
// reproduction is device-independent (the MMA semantics are exact), so one
// table stands for both the H200 and B200 columns of the paper. Variant
// runs and the serial references route through the harness cache: the
// parallel plan executes first, and a warm table re-runs nothing.
func (h *Harness) Table6() ([]accuracy.Row, error) {
	if err := h.Execute(h.keysTable6()); err != nil {
		return nil, err
	}
	var rows []accuracy.Row
	for _, w := range h.Suite.Workloads() {
		if w.Name() == "BFS" {
			continue // no floating-point computation (Section 8)
		}
		w := w
		row, err := accuracy.MeasureWorkloadWith(w,
			func(c workload.Case, v workload.Variant) (*workload.Result, error) {
				return h.run(w, c, v)
			},
			func(c workload.Case) ([]float64, error) {
				return h.reference(w, c)
			})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure9 places every floating-point workload variant on the cache-aware
// roofline of one device (the paper plots H200). BFS is excluded — it
// performs bit-wise operations.
func (h *Harness) Figure9(spec device.Spec) (roofline.Model, []roofline.Point, error) {
	m := roofline.New(spec)
	if err := h.Execute(h.keysFigure9()); err != nil {
		return m, nil, err
	}
	var pts []roofline.Point
	for _, w := range h.Suite.Workloads() {
		if w.Name() == "BFS" {
			continue
		}
		for _, v := range w.Variants() {
			res, err := h.run(w, w.Representative(), v)
			if err != nil {
				return m, nil, err
			}
			pts = append(pts, m.Place(w.Name(), string(v), res.Profile))
		}
	}
	return m, pts, nil
}
