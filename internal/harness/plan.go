package harness

// Plan-ahead scheduling over one flight table. Everything the harness
// computes is a plan key (RunKey): a workload execution, a case's
// CPU-serial reference (RefVariant), or a memoized value (MemoVariant,
// memo.go: the Figure 10 feature matrices, the dataset-level ablation arms
// and the Table 6 rows). Each key has one flight in the harness's flight
// table (a par.Flights keyed by RunKey), reached through do (harness.go).
// Each experiment (figure, table, sweep) states up front exactly which
// keys it needs — the grid is static — so the harness deduplicates them,
// claims their flights, orders them and executes them on a bounded worker
// pool (Execute); the figure then assembles its rows from the flights in
// deterministic paper order. `cubie all` unions every experiment's keys
// into one whole-campaign plan (PlanCampaign), executes it as one Execute,
// and only then renders (RenderAll): each figure's own Execute finds every
// key done. Output stays byte-identical regardless of scheduling —
// assembly order is fixed, and every run and memo is deterministic.
//
// A plan also knows everything its jobs read: the Table 3/4 datasets, each
// case's layout and dense operand, and (for the table6 memo) the
// representative runs' outputs and the references. Execute counts those
// uses before it starts anything and releases each as its reader finishes,
// so an input leaves memory after its last planned reader (par.Flights).
//
// One cost model in seconds ranks every job: a memo by its name, a run by
// its workload and kind (a representative case executes, any other case
// is profiled, or the CPU-serial reference), from a table folded out of
// traced cold campaigns (costs.go, regenerated by TestCostTable); a job
// the table6 memo reads adds the memo's cost. A job starts by its rank,
// the highest cost among the jobs that read anything it reads (schedule),
// so the readers of one input start together, beside its costliest
// reader, and the input is released soon after it is built rather than
// held until a cheap reader's turn comes. The table6 memo, which reads
// runs, starts last, so its pool slot never waits on a run that has not
// started. A cold `cubie all` shows one `harness-plan` span ("execute 191
// keys") from 0 s, with the costliest jobs (matrix-corpus, bfs-relabel
// with the BFS runs) starting at 0 s, and the `render` spans after it.

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

// source returns how to produce job j's value.
func (h *Harness) source(j planJob) (source, error) {
	switch j.key.Variant {
	case MemoVariant:
		return h.memoSource(j.key.Case)
	case RefVariant:
		return h.refSource(j.w, j.c), nil
	}
	return h.runSource(j.w, j.c, j.key.Variant), nil
}

// reads lists the inputs job j reads, for Execute to count: a memo's from
// its definition, a run's or reference's from its workload.
func (h *Harness) reads(j planJob) []par.Input {
	switch j.key.Variant {
	case MemoVariant:
		d, _ := resolveMemo(j.key)
		return d.reads(h)
	case RefVariant:
		return workload.Inputs(j.w, j.c, "", workload.OpReference)
	}
	op := workload.OpProfile
	if executes(j.w, j.c) {
		op = workload.OpRun
	}
	return workload.Inputs(j.w, j.c, j.key.Variant, op)
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

// execute runs one resolved job: in the flight its plan claimed for it
// (Execute), else in the key's own (do).
func (h *Harness) execute(j planJob) error {
	src, err := h.source(j)
	switch {
	case j.flight != nil && err != nil:
		h.flights.Finish(j.key, j.flight, nil, err) // its joiners wake
	case j.flight != nil:
		_, err = h.flights.Compute(j.key, j.flight, h.produce(j.key, src))
	case err == nil:
		_, err = h.do(j.key, src)
	}
	if err != nil {
		return fmt.Errorf("%s/%s/%s: %w", j.key.Workload, j.key.Case, j.key.Variant, err)
	}
	return nil
}

// planJob is one resolved plan entry. Memo jobs leave w and c unset.
type planJob struct {
	key    RunKey
	w      workload.Workload
	c      workload.Case
	reads  bool             // a memo that reads runs (table6)
	cost   float64          // traced seconds (cost), plus those of a memo that reads it (schedule)
	rank   float64          // the highest cost among the readers of what it reads (schedule)
	in     []par.Input      // what it reads (Harness.reads)
	flight *par.Flight[any] // the key's flight, once Execute claimed it
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
	if executes(j.w, j.c) {
		return runSecs[j.key.Workload].executes
	}
	return runSecs[j.key.Workload].profiles
}

// before reports whether job a starts ahead of job b: a memo that reads
// runs goes last, after every run it reads has started; otherwise the
// higher rank first, then the costlier job, then key order. One cost in
// seconds ranks memos, runs and references against each other, so a long
// CPU-serial reference starts beside the long memos rather than behind
// them, and a cheap reader of a shared input starts beside the costly
// one that builds it.
func before(a, b planJob) bool {
	if a.reads != b.reads {
		return b.reads
	}
	if a.rank != b.rank {
		return a.rank > b.rank
	}
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.key.String() < b.key.String()
}

// planSlots is how many jobs Execute runs at once: three per core, the
// smallest width no other was faster than. Campaign-cold `bench/run.sh`
// runs on a 2-vCPU Xeon, eight rounds alternating the widths (seeds
// 11–18, 20 s each, medians): `sample_s` 1.716 s at 1×, 1.529 s at 2× and
// 1.447 s at 3× GOMAXPROCS, 3× faster than 1× in all eight rounds and
// than 2× in six. With the readers of one input started together
// (schedule), a wider pool holds no more inputs at once: `peak_rss_mb`
// 358, 243 and 245 MB.
func planSlots() int { return 3 * runtime.GOMAXPROCS(0) }

// Execute runs a plan: resolve, rank and order its jobs (schedule), claim
// their flights (claim), count the inputs they read, and run them on
// planSlots workers, started strictly in that order. Each input's planned
// uses are counted before any job runs, and each job releases its reads
// when it finishes, so an input leaves its flight table after its last
// planned reader (par.Flights). The first error in start order is
// returned with its key context. Execute composes with concurrent plans
// and figure pulls through the flight table: a key another caller reached
// first is theirs to compute and count, and re-executing an
// already-satisfied plan costs one map lookup per key.
func (h *Harness) Execute(keys []RunKey) error {
	jobs, err := h.schedule(h.pending(keys))
	if err != nil {
		return err
	}
	if jobs = h.claim(jobs); len(jobs) == 0 {
		return nil
	}
	metPlanKeys.Add(uint64(len(jobs)))
	endSpan := trace.HostSpan("harness-plan", fmt.Sprintf("execute %d keys", len(jobs)))
	defer endSpan()

	for _, j := range jobs {
		for _, in := range j.in {
			in.Expect(1)
		}
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, planSlots())
	for i, j := range jobs {
		sem <- struct{}{} // acquire here, so jobs start in order
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = h.execute(j)
			for _, in := range j.in {
				in.Release()
			}
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

// claim takes each job's flight, before any job runs, and drops the jobs
// whose key another caller reached first: that caller computes it, and the
// assembly pull joins its flight. So two concurrent plans never both count
// or run one key.
func (h *Harness) claim(jobs []planJob) []planJob {
	mine := jobs[:0]
	for _, j := range jobs {
		if f, owner := h.flights.Join(j.key); owner {
			j.flight = f
			mine = append(mine, j)
		}
	}
	return mine
}

// pending deduplicates a plan's keys, counting the duplicates, and drops
// the ones whose flight already exists (in flight or completed — the
// assembly pull joins those), in first-seen plan order.
func (h *Harness) pending(keys []RunKey) []RunKey {
	seen := map[RunKey]bool{}
	var pending []RunKey
	for _, k := range keys {
		if seen[k] {
			metPlanDuplicates.Inc()
			continue
		}
		seen[k] = true
		if h.flights.State(k) == par.Absent { // a failed flight is evicted
			pending = append(pending, k)
		}
	}
	return pending
}

// schedule is the one start order of a plan, for Execute and the
// distributed queue alike. It resolves the jobs of keys in first-seen
// order, dropping duplicates, and adds the inputs of every memo that must
// be computed; a job such a memo reads costs its own cost plus the
// memo's, so the memo's inputs do not trail jobs nothing waits on. It
// lists what each job reads (reads) and ranks each job by the highest
// cost among the jobs that read anything it reads, its own included, then
// sorts the jobs by before. Every shared input (a Table 3/4 dataset, a
// case's layout or dense operand) is read directly by all its readers, so
// one hop puts them in one rank.
func (h *Harness) schedule(keys []RunKey) ([]planJob, error) {
	seen := map[RunKey]bool{}
	var pending []RunKey
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			pending = append(pending, k)
		}
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
	top := map[par.Input]float64{} // the costliest reader of each input
	for i := range jobs {
		jobs[i].cost += path[jobs[i].key]
		jobs[i].in = h.reads(jobs[i])
		for _, in := range jobs[i].in {
			top[in] = max(top[in], jobs[i].cost)
		}
	}
	for i := range jobs {
		jobs[i].rank = jobs[i].cost
		for _, in := range jobs[i].in {
			jobs[i].rank = max(jobs[i].rank, top[in])
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return before(jobs[a], jobs[b]) })
	return jobs, nil
}
