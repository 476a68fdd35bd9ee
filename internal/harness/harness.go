// Package harness drives the paper's experiments end to end: it runs every
// workload variant on the simulated devices and assembles the exact rows
// and series behind Figures 3–12 and Tables 6–7. The cmd/cubie CLI and the
// top-level benchmarks print these structures.
//
// # One flight per plan key
//
// A Harness is safe for concurrent use. Everything it computes is named by
// a plan key (RunKey, plan.go): a workload execution, a case's CPU-serial
// reference (RefVariant), or a memoized value (MemoVariant, memo.go). Each
// key has at most one in-memory flight in the harness's par.Flights table,
// and do is the one read-or-compute path behind all of them: the first
// caller loads the value from the persistent run cache or computes it,
// concurrent callers join its flight and share the outcome, and a failed
// computation is evicted so a later caller can retry. The inputs a run
// reads (datasets, layouts) are flights of their own, in the dataset
// packages and the kernels, built under phase "synthesize" or "layout"
// whichever key reaches them first. Every figure driver first enumerates
// the keys it needs (plan.go), executes the deduplicated plan on a bounded
// worker set, then assembles its rows serially in deterministic grid
// order — harness output is independent of scheduling (the same property
// internal/par guarantees one level down).
//
// # Persistent run cache
//
// When a runcache.Cache is attached (AttachCache; the cubie CLI attaches
// the CUBIE_CACHE-selected cache), completed computations are persisted on
// disk and later processes load them instead of re-running: a warm
// `cubie all` starts zero workload executions
// (cubie_harness_runs_started_total stays 0) yet emits byte-identical
// output, because every run is deterministic (determinism_test.go).
//
// Every execution is instrumented (docs/OBSERVABILITY.md): runs started /
// deduplicated / cached / failed / retried counters, a per-workload
// wall-time histogram (cubie_harness_run_seconds{workload=...}),
// runtime/pprof labels {workload, variant, phase} via par.DoLabeled so CPU
// profiles attribute samples to kernels, and — when host tracing is
// active — one trace.HostSpan per kernel execution.
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

// Harness execution metrics (see docs/OBSERVABILITY.md). They count runs
// and references; memos have metMemosComputed (memo.go).
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

// runSeconds returns the per-workload wall-time histogram.
func runSeconds(workloadName string) *metrics.Histogram {
	return metrics.NewHistogram("cubie_harness_run_seconds",
		"Host wall-clock seconds of one workload-variant execution (Go arithmetic, not simulated device time).",
		metrics.DefTimeBuckets, metrics.Label{Key: "workload", Value: workloadName})
}

// Harness computes each plan key once across all experiments — in memory
// within the process, and on disk across processes when a run cache is
// attached.
type Harness struct {
	Suite *core.Suite

	// flights holds one flight per plan key: a run's *workload.Result, a
	// reference's []float64, or a memo's value. Table 6 is the one reader of
	// representative outputs and references, so a plan that computes it
	// counts them, and after its last use a run keeps its result without
	// Output and a reference leaves (spent).
	flights par.Flights[RunKey, any]

	mu     sync.Mutex
	failed map[RunKey]bool // keys whose last computation errored

	rc *runcache.Cache // persistent run cache; nil = in-memory only
}

// New creates a harness over a fresh suite, without a persistent cache
// (AttachCache opts in).
func New() *Harness {
	h := &Harness{
		Suite:  core.NewSuite(),
		failed: map[RunKey]bool{},
	}
	h.flights.Spent = spent
	return h
}

// spent is what the harness's flight table keeps of a value after its
// last planned use: every figure reads a run's result, so it stays,
// without its Output; a reference leaves.
func spent(v any) (any, bool) {
	res, ok := v.(*workload.Result)
	if !ok {
		return nil, false
	}
	return cacheable(res), true
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

// source is how to produce the value of one plan key: load it from the
// run cache, else compute it.
type source struct {
	load    func() (any, bool)
	compute func() (any, error)
}

// do returns the value of plan key k: from its in-memory flight when one
// exists, else produced from src. Concurrent callers for k share one
// flight, so exactly one of them loads or computes, and every caller gets
// the same value.
func (h *Harness) do(k RunKey, src source) (any, error) {
	v, err, joined := h.flights.Do(k, h.produce(k, src))
	if joined && k.Variant != MemoVariant {
		metRunsDeduped.Inc()
	}
	return v, err
}

// produce returns the computation of k's flight: src's load, else its
// compute. A failed computation is evicted before its joiners wake
// (par.Flights), so a later caller retries. The run counters see run and
// reference keys only; a memo counts itself (memoDef.run).
func (h *Harness) produce(k RunKey, src source) func() (any, error) {
	isRun := k.Variant != MemoVariant
	return func() (any, error) {
		h.mu.Lock()
		retry := h.failed[k]
		delete(h.failed, k)
		h.mu.Unlock()
		if v, ok := src.load(); ok {
			if isRun {
				metRunsCached.Inc()
			}
			return v, nil
		}
		if retry && isRun {
			metRunsRetried.Inc()
		}
		v, err := src.compute()
		if err != nil {
			if isRun {
				metRunsFailed.Inc()
			}
			h.mu.Lock()
			h.failed[k] = true
			h.mu.Unlock()
		}
		return v, err
	}
}

// executes reports whether a run of case c executes (w.Run) rather than
// profiles: only Table 6 reads outputs, and only of representative cases.
func executes(w workload.Workload, c workload.Case) bool {
	return c.Name == w.Representative().Name
}

// run returns the result of one workload/case/variant, computing it only
// when neither a flight nor the run cache has it.
func (h *Harness) run(w workload.Workload, c workload.Case, v workload.Variant) (*workload.Result, error) {
	val, err := h.do(RunKey{w.Name(), c.Name, v}, h.runSource(w, c, v))
	res, _ := val.(*workload.Result)
	return res, err
}

// runSource produces one run: a representative case executes (w.Run) and
// keeps its Output in memory until Table 6 has read it, and every other
// case is profiled (w.Profile) and has none. A computed result is written
// through to the run cache without its Output.
func (h *Harness) runSource(w workload.Workload, c workload.Case, v workload.Variant) source {
	k := RunKey{w.Name(), c.Name, v}
	return source{func() (any, bool) {
		return h.rc.GetResult(w.Name(), c.Name, string(v))
	}, func() (any, error) {
		compute := w.Profile
		if executes(w, c) {
			compute = w.Run
		}
		var res *workload.Result
		var err error
		timed(k, func() { res, err = compute(c, v) })
		if err != nil {
			return res, err
		}
		par.DoLabeled(k.Workload, string(v), "store", func() {
			h.rc.PutResult(w.Name(), c.Name, string(v), cacheable(res))
		})
		return res, nil
	}}
}

// timed executes fn as one started execution of k: inside a harness-run
// host span, under pprof labels, observed in its workload's latency
// histogram.
func timed(k RunKey, fn func()) {
	metRunsStarted.Inc()
	endSpan := trace.HostSpan("harness-run", k.String())
	t0 := time.Now()
	par.DoLabeled(k.Workload, string(k.Variant), "run", fn)
	runSeconds(k.Workload).Observe(time.Since(t0).Seconds())
	endSpan()
}

// cacheable returns the result to persist for one execution: every field
// but Output. Every figure consumes Profile, Work and the utilization
// fields; only Table 6 reads outputs, and it persists its rows (the table6
// memo) rather than the arrays they are measured from.
func cacheable(res *workload.Result) *workload.Result {
	if res.Output == nil {
		return res
	}
	trimmed := *res
	trimmed.Output = nil
	return &trimmed
}

// output returns one run whose Output Table 6 measures: the run's
// in-process flight when it executed here, else — a run served from the
// run cache carries no output — a direct execution of w.Run, uncached.
func (h *Harness) output(w workload.Workload, c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := h.run(w, c, v)
	if err != nil || res.Output != nil {
		return res, err
	}
	timed(RunKey{w.Name(), c.Name, v}, func() {
		res, err = w.Run(c, v)
	})
	return res, err
}

// reference returns the CPU-serial ground truth of one workload case — the
// Table 6 baseline — under the plan key of the pseudo-variant RefVariant,
// persisted to the run cache. Only a Table 6 computation reads it: a warm
// Table 6 is the table6 memo's rows, so it reads no reference. The
// persisted entries serve a Table 6 recomputed without that memo, and
// readers of PlanAll's RefVariant keys.
func (h *Harness) reference(w workload.Workload, c workload.Case) ([]float64, error) {
	val, err := h.do(RunKey{w.Name(), c.Name, RefVariant}, h.refSource(w, c))
	out, _ := val.([]float64)
	return out, err
}

// refSource produces one reference, persisted to the run cache.
func (h *Harness) refSource(w workload.Workload, c workload.Case) source {
	k := RunKey{w.Name(), c.Name, RefVariant}
	rcKey := runcache.ResultKey(w.Name(), c.Name, string(RefVariant))
	return source{func() (any, bool) {
		return h.rc.GetFloats(runcache.KindReference, rcKey)
	}, func() (any, error) {
		var out []float64
		var err error
		timed(k, func() { out, err = w.Reference(c) })
		if err == nil {
			par.DoLabeled(k.Workload, string(RefVariant), "store", func() {
				h.rc.PutFloats(runcache.KindReference, rcKey, out)
			})
		}
		return out, err
	}}
}

// RunOne executes a single (workload, case, variant) through the harness
// cache — the entry point behind `cubie run`. An empty caseName selects the
// workload's representative case. The returned Case reports what actually
// ran. The result carries its Output only when this process executed a
// representative case: a result loaded from the run cache has none, and
// any other case is profiled, not executed.
func (h *Harness) RunOne(workloadName, caseName string, v workload.Variant) (workload.Case, *workload.Result, error) {
	w, c, err := h.ResolveRun(workloadName, caseName, v)
	if err != nil {
		return workload.Case{}, nil, err
	}
	res, err := h.run(w, c, v)
	return c, res, err
}

// ResolveRun resolves the workload and case a RunOne call names, and
// fails if either is unknown or the workload lacks the variant. An empty
// caseName selects the workload's representative case.
func (h *Harness) ResolveRun(workloadName, caseName string, v workload.Variant) (workload.Workload, workload.Case, error) {
	w, err := h.Suite.ByName(workloadName)
	if err != nil {
		return nil, workload.Case{}, err
	}
	c := w.Representative()
	if caseName != "" {
		if c, err = workload.FindCase(w, caseName); err != nil {
			return nil, workload.Case{}, err
		}
	}
	if !workload.HasVariant(w, v) {
		return nil, workload.Case{}, fmt.Errorf("workload %s: variant %q not implemented (have %v)",
			w.Name(), v, w.Variants())
	}
	return w, c, nil
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
// table stands for both the H200 and B200 columns of the paper. The rows
// are the table6 memo: a warm table reads them from the run cache and
// decodes no output or reference array. Computing them executes the
// memo's input runs and references as one parallel plan first.
func (h *Harness) Table6() ([]accuracy.Row, error) {
	if err := h.Execute([]RunKey{memoPlanKey("table6")}); err != nil {
		return nil, err
	}
	return memo[[]accuracy.Row](h, "table6")
}

// table6Rows computes the table6 memo: one accuracy row per floating-point
// workload, each representative output from its run's flight (output) and
// each reference through h.reference.
func table6Rows(h *Harness) ([]accuracy.Row, error) {
	var rows []accuracy.Row
	for _, w := range h.Suite.Workloads() {
		if w.Name() == "BFS" {
			continue // no floating-point computation (Section 8)
		}
		row, err := accuracy.MeasureWorkloadWith(w,
			func(c workload.Case, v workload.Variant) (*workload.Result, error) {
				return h.output(w, c, v)
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
