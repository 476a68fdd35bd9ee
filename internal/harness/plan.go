package harness

// Plan-ahead scheduling over one flight table. Everything the harness
// computes is a plan key (RunKey): a workload execution, a case's
// CPU-serial reference (RefVariant), or a memoized value (MemoVariant,
// memo.go: the Figure 10 feature matrices, the dataset-level ablation arms
// and the Table 6 rows). Each key has one flight in the harness's flight
// table (a par.Flights keyed by RunKey), reached through do (harness.go). Each experiment (figure, table,
// sweep) states up front exactly which keys it needs — the grid is static
// — so the harness deduplicates them, orders them and executes them on a
// bounded worker pool (Execute); the figure then assembles its rows from
// the flights in deterministic paper order. `cubie all` unions every
// experiment's keys into one whole-campaign plan (PlanCampaign) and
// prefetches it in the background (Prefetch) while the figures render, so
// the prefetch's Execute and the first figure's own Execute run at once
// (RenderAll says why that, not render overlap, is the gain). Planner and
// figure pulls meet in the same flight: whichever reaches a key first
// computes it, the other joins. Output stays byte-identical regardless of
// scheduling — assembly order is fixed, and every run and memo is
// deterministic.
//
// One cost model in seconds ranks every job: a memo by its name, a run by
// its workload and kind (a representative case executes, any other case
// is profiled, or the CPU-serial reference), from a table folded out of
// traced cold campaigns (costs.go, regenerated by TestCostTable). The
// costliest job starts first; a job the table6 memo reads ranks by its
// cost plus the memo's; the memo itself, which reads runs, starts last, so
// its pool slot never waits on a run that has not started. A cold
// `cubie all` runs two Executes at once, Prefetch's (191 keys) and
// figure3's (175 keys), each on GOMAXPROCS slots. Traced cold on a 2-vCPU
// Xeon, four jobs therefore start at 0 s: matrix-corpus (~0.45–0.6 s) and
// bfs-relabel (~0.35–0.4 s) on the prefetch's slots, and the BFS Kronecker
// runs (~0.3 s) on figure3's. graph-corpus takes the first prefetch slot
// they free, the CPU-serial FFT reference the next, at ~0.47–0.62 s, and
// the last span ends ~0.03 s after the last grid run, at ~1.5–1.65 s.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RefVariant is the pseudo-variant under which a plan schedules the
// CPU-serial reference computation of a case (the Table 6 ground truth).
const RefVariant workload.Variant = "__reference"

// Planner metrics (see docs/OBSERVABILITY.md).
var (
	metPlanKeys = metrics.NewCounter("cubie_harness_plan_keys_total",
		"Distinct plan keys (runs and memos) submitted to the plan executor (after deduplication).")
	metPlanDuplicates = metrics.NewCounter("cubie_harness_plan_duplicates_total",
		"Plan keys dropped by plan deduplication (requested by more than one experiment).")
)

// RunKey identifies one workload execution a plan needs: a (workload,
// case, variant) triple, with RefVariant selecting the case's CPU-serial
// reference computation.
type RunKey struct {
	Workload string
	Case     string
	Variant  workload.Variant
}

func (k RunKey) String() string {
	return k.Workload + "|" + k.Case + "|" + string(k.Variant)
}

// keysFigure3 is the full performance grid: every workload × case ×
// variant. It is a superset of what Figures 4–9, 11, the sweeps, the
// counterfactual, and the run-backed ablations need.
func (h *Harness) keysFigure3() []RunKey {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		for _, c := range w.Cases() {
			for _, v := range w.Variants() {
				keys = append(keys, RunKey{w.Name(), c.Name, v})
			}
		}
	}
	return keys
}

// keysSpeedups covers one Figure 4/5/6 variant pair across all cases.
func (h *Harness) keysSpeedups(num, den workload.Variant) []RunKey {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		if !workload.HasVariant(w, num) || !workload.HasVariant(w, den) {
			continue
		}
		for _, c := range w.Cases() {
			keys = append(keys, RunKey{w.Name(), c.Name, num}, RunKey{w.Name(), c.Name, den})
		}
	}
	return keys
}

// keysPower covers Figures 7 and 8: every variant on the power case.
func (h *Harness) keysPower() []RunKey {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		for _, v := range w.Variants() {
			keys = append(keys, RunKey{w.Name(), powerCase(w).Name, v})
		}
	}
	return keys
}

// keysTable6 covers the accuracy table: every variant of each
// floating-point workload on its representative case, plus the CPU-serial
// reference of that case. These are the table6 memo's inputs.
func (h *Harness) keysTable6() []RunKey {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		if w.Name() == "BFS" {
			continue
		}
		c := w.Representative().Name
		for _, v := range w.Variants() {
			keys = append(keys, RunKey{w.Name(), c, v})
		}
		keys = append(keys, RunKey{w.Name(), c, RefVariant})
	}
	return keys
}

// keysFigure9 covers the roofline: representative case, every variant,
// floating-point workloads only.
func (h *Harness) keysFigure9() []RunKey {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		if w.Name() == "BFS" {
			continue
		}
		for _, v := range w.Variants() {
			keys = append(keys, RunKey{w.Name(), w.Representative().Name, v})
		}
	}
	return keys
}

// keysRepresentative covers one variant-complete pass over the
// representative cases (Figure 11's architectural metrics).
func (h *Harness) keysRepresentative() []RunKey {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		for _, v := range w.Variants() {
			keys = append(keys, RunKey{w.Name(), w.Representative().Name, v})
		}
	}
	return keys
}

// keysTC covers one variant on the power (largest) case of every workload
// — the sweeps and the Section 11 counterfactual.
func (h *Harness) keysTC() []RunKey {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		keys = append(keys, RunKey{w.Name(), powerCase(w).Name, workload.TC})
	}
	return keys
}

// PlanAll returns the run keys of the whole campaign: the union of every
// experiment `cubie all` renders. Figure 3's grid already subsumes the
// speedup, power, roofline, coverage, sweep, counterfactual, and ablation
// runs; Table 6 adds the CPU-serial references. Every key names a suite
// workload and has a run-cache result or reference entry once a cold
// campaign ran. The campaign itself executes PlanCampaign, in which the
// references are inputs of the table6 memo rather than keys.
func (h *Harness) PlanAll() []RunKey {
	var keys []RunKey
	keys = append(keys, h.keysFigure3()...)
	keys = append(keys, h.keysPower()...)
	keys = append(keys, h.keysTable6()...)
	keys = append(keys, h.keysFigure9()...)
	keys = append(keys, h.keysRepresentative()...)
	keys = append(keys, h.keysTC()...)
	return keys
}

// PlanCampaign returns everything `cubie all` computes: the memo keys its
// coverage, ablation and Table 6 sections read, then PlanAll's run keys
// without the references. A warm campaign therefore reads the Table 6 rows
// and never a reference array; a cold one computes the references as
// inputs of the table6 memo (Execute). This is the plan "all" of
// PlanByName, so `cubie dist` hands memos to workers too.
func (h *Harness) PlanCampaign() []RunKey {
	keys := []RunKey{
		memoPlanKey(corpusKey("graph-corpus", campaignCorpus, graphCorpusSeed)),
		memoPlanKey("graph-reps"),
		memoPlanKey(corpusKey("matrix-corpus", campaignCorpus, matrixCorpusSeed)),
		memoPlanKey("matrix-reps"),
		memoPlanKey("dasp-padding"),
		memoPlanKey("bfs-relabel"),
		memoPlanKey("table6"),
	}
	for _, k := range h.PlanAll() {
		if k.Variant != RefVariant {
			keys = append(keys, k)
		}
	}
	return keys
}

// PlanNames lists the named plans PlanByName resolves, in campaign order.
// These are the sweep/campaign granularities the serve API exposes.
func PlanNames() []string {
	return []string{"all", "figure3", "power", "table6", "figure9", "representative", "sweep"}
}

// PlanByName resolves a named plan to its key set: "all" is the
// whole-campaign union of memos and runs, "figure3" the full performance
// grid, "power" the Figure 7/8 runs, "table6" the table6 memo (the worker
// that computes it runs its accuracy runs and CPU-serial references),
// "figure9" the roofline runs, "representative" one
// variant-complete pass over the representative cases, and "sweep" the
// largest-case TC runs the provisioning sweeps and the counterfactual
// reuse.
func (h *Harness) PlanByName(name string) ([]RunKey, error) {
	switch name {
	case "all":
		return h.PlanCampaign(), nil
	case "figure3":
		return h.keysFigure3(), nil
	case "power":
		return h.keysPower(), nil
	case "table6":
		return []RunKey{memoPlanKey("table6")}, nil
	case "figure9":
		return h.keysFigure9(), nil
	case "representative":
		return h.keysRepresentative(), nil
	case "sweep":
		return h.keysTC(), nil
	}
	return nil, fmt.Errorf("unknown plan %q (have %v)", name, PlanNames())
}

// Progress reports how many of keys have completed successfully so far —
// the serve API's campaign progress counter. Keys whose execution is still
// in flight, failed, or not yet started do not count.
func (h *Harness) Progress(keys []RunKey) int {
	done := 0
	for _, k := range keys {
		if h.flights.State(k) == par.Done {
			done++
		}
	}
	return done
}

// Prefetch starts executing a plan in the background and returns
// immediately. Errors are dropped here on purpose: a figure that needs a
// failed key will retry it (failed runs are evicted) and surface the
// error with full context on its own pull path.
func (h *Harness) Prefetch(keys []RunKey) {
	go func() { _ = h.Execute(keys) }()
}

// resolveKey resolves one run key against the suite.
func (h *Harness) resolveKey(k RunKey) (workload.Workload, workload.Case, error) {
	w, err := h.Suite.ByName(k.Workload)
	if err != nil {
		return nil, workload.Case{}, fmt.Errorf("plan %s: %w", k, err)
	}
	c, err := workload.FindCase(w, k.Case)
	if err != nil {
		return nil, workload.Case{}, fmt.Errorf("plan %s: %w", k, err)
	}
	return w, c, nil
}

// resolveJob resolves one plan key — a memo key against the memo table,
// any other against the suite — into a job with its cost.
func (h *Harness) resolveJob(k RunKey) (planJob, error) {
	j := planJob{key: k}
	if k.Variant == MemoVariant {
		d, err := resolveMemo(k)
		j.reads = d.inputs != nil
		j.cost = cost(j)
		return j, err
	}
	var err error
	if j.w, j.c, err = h.resolveKey(k); err != nil {
		return j, err
	}
	j.cost = cost(j)
	return j, nil
}

// ExecuteKey runs one plan key through the harness caches — the unit of
// work a distributed worker executes. A RefVariant key computes the case's
// CPU-serial reference, a MemoVariant key reads or computes a memo, and
// every other key is a workload-variant execution. The result lands in
// the key's in-memory flight and, when a run cache is attached, in its
// persistent tiers (the local directory, then the remote store) —
// which is how a `cubie work` worker publishes results back to its
// coordinator.
func (h *Harness) ExecuteKey(k RunKey) error {
	j, err := h.resolveJob(k)
	if err != nil {
		return err
	}
	return h.execute(j)
}

// execute runs one resolved job.
func (h *Harness) execute(j planJob) error {
	var err error
	switch j.key.Variant {
	case MemoVariant:
		_, err = h.memoValue(j.key.Case)
	case RefVariant:
		_, err = h.reference(j.w, j.c)
	default:
		_, err = h.run(j.w, j.c, j.key.Variant)
	}
	if err != nil {
		return fmt.Errorf("%s/%s/%s: %w", j.key.Workload, j.key.Case, j.key.Variant, err)
	}
	return nil
}

// planJob is one resolved plan entry. Memo jobs leave w and c unset.
type planJob struct {
	key   RunKey
	w     workload.Workload
	c     workload.Case
	reads bool    // a memo that reads runs (table6)
	cost  float64 // traced seconds (cost), plus those of a memo that reads it (jobs)
}

// runCost is one workload's traced seconds per plan key of each kind: an
// execution of its representative case, a profile of any other case, and
// its CPU-serial reference.
type runCost struct{ executes, profiles, reference float64 }

// cost returns a job's traced seconds in a cold `cubie all` from the
// committed table (costs.go): a memo's by its name, a run's by its
// workload and kind. Only the order it induces matters; results never
// depend on it.
func cost(j planJob) float64 {
	switch j.key.Variant {
	case MemoVariant:
		name, _, _ := strings.Cut(j.key.Case, "|")
		return memoSecs[name]
	case RefVariant:
		return runSecs[j.key.Workload].reference
	}
	if j.c.Name == j.w.Representative().Name {
		return runSecs[j.key.Workload].executes
	}
	return runSecs[j.key.Workload].profiles
}

// before reports whether job a starts ahead of job b: a memo that reads
// runs goes last, after every run it reads has started; otherwise the
// costlier job first, then key order. One cost in seconds ranks memos,
// runs and references against each other, so a long CPU-serial reference
// starts beside the long memos rather than behind them.
func before(a, b planJob) bool {
	if a.reads != b.reads {
		return b.reads
	}
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.key.String() < b.key.String()
}

// Execute runs a plan: resolve its jobs (jobs), order them (before), and
// run them on a worker pool bounded by the host's cores, started strictly
// in that order. The first error in plan order is returned with its key
// context. Execute composes with concurrent figure pulls through the
// flight table, and re-executing an already-satisfied plan costs one map
// lookup per key.
func (h *Harness) Execute(keys []RunKey) error {
	jobs, err := h.jobs(keys)
	if err != nil || len(jobs) == 0 {
		return err
	}
	metPlanKeys.Add(uint64(len(jobs)))
	endSpan := trace.HostSpan("harness-plan", fmt.Sprintf("execute %d keys", len(jobs)))
	defer endSpan()

	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return before(jobs[order[a]], jobs[order[b]]) })

	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, i := range order {
		sem <- struct{}{} // acquire here, so jobs start in order
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = h.execute(jobs[i])
		}()
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobs resolves the jobs a plan must run, in first-seen plan order (error
// reporting is deterministic in plan order, independent of pool
// scheduling): it deduplicates the keys, drops the ones whose flight
// already exists (in flight or completed — the assembly pull joins those),
// and adds the inputs of every memo that must be computed. A job such a
// memo reads ranks by the path through it, its cost plus the memo's, so
// the memo's inputs do not trail jobs nothing waits on.
func (h *Harness) jobs(keys []RunKey) ([]planJob, error) {
	seen := map[RunKey]bool{}
	var pending []RunKey
	for _, k := range keys {
		if seen[k] {
			metPlanDuplicates.Inc()
			continue
		}
		seen[k] = true
		if h.flights.State(k) != par.Absent {
			continue // in flight or done; a failed flight is evicted
		}
		pending = append(pending, k)
	}
	var jobs []planJob
	path := map[RunKey]float64{} // the cost of the memo reading a key
	for i := 0; i < len(pending); i++ {
		j, err := h.resolveJob(pending[i])
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		// A memo that reads runs, and that the run cache does not hold,
		// brings its inputs in as keys of their own, so they start by their
		// costs (the references early) and not in its one pool slot. A
		// warm plan reads the memo and none of its inputs.
		if !j.reads {
			continue
		}
		d, _ := resolveMemo(j.key)
		if h.rc.Has(d.kind, j.key.Case) {
			continue
		}
		for _, in := range d.inputs(h) {
			path[in] += j.cost
			if !seen[in] && h.flights.State(in) == par.Absent {
				seen[in] = true
				pending = append(pending, in)
			}
		}
	}
	for i := range jobs {
		jobs[i].cost += path[jobs[i].key]
	}
	return jobs, nil
}
