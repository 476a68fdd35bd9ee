package harness

// Plan-ahead scheduling. Each experiment (figure, table, sweep) can state
// up front exactly which (workload, case, variant) executions it needs —
// the run grid is static. Instead of pulling runs on demand one figure at
// a time, the harness enumerates the full key set, deduplicates it,
// orders it, and executes it on a bounded worker pool (Execute). Figures
// then assemble their rows from the cache in deterministic paper order.
// `cubie all` goes one step further: it unions every experiment's keys
// into one whole-campaign plan (PlanCampaign) and prefetches it in the
// background (Prefetch), so the work a later figure needs executes while
// an earlier figure renders.
//
// A plan holds two kinds of key on one pool. Run keys are workload
// executions and CPU-serial references. Memo keys (MemoVariant) are the
// memoized dataset values of memo.go: the Figure 10 feature matrices and
// the dataset-level ablation arms. Memos start first, longest first by
// their traced seconds; run keys follow, longest-estimated first. In a
// cold `cubie all` traced on a 2-vCPU Xeon before memos were plan keys,
// the pool drained at 4.17 s and the renderers then computed graph-corpus
// (0.48 s), matrix-corpus (2.77 s) and bfs-relabel (0.68 s) one after
// another on one core, to 8.22 s. Started first, the single-threaded
// corpus overlaps the runs instead of trailing them.
//
// Because each key lands in a singleflight cache (h.cache for runs,
// h.memos for memos), planner execution and on-demand figure pulls
// compose: whichever path reaches a key first runs it, the other joins.
// Output stays byte-identical regardless of scheduling — assembly order is
// fixed, and every run and memo is deterministic.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/runcache"
	"repro/internal/sparse"
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
	metPlanPrewarmed = metrics.NewCounter("cubie_harness_plan_prewarmed_datasets_total",
		"Table 3/4 dataset syntheses started ahead of the runs that need them.")
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

// keysMemo returns the named plan's memoized key slice, building it on
// first use. The suite is immutable, so every enumeration is a constant
// of the harness — re-planning figures (and their benchmarks) should not
// pay the Cases()/Variants() allocations on each call. The returned slice
// is read-only by contract; concurrent first callers may build twice,
// identically.
func (h *Harness) keysMemo(name string, build func() []RunKey) []RunKey {
	h.keysMu.Lock()
	ks, ok := h.keyCache[name]
	h.keysMu.Unlock()
	if ok {
		return ks
	}
	ks = build()
	h.keysMu.Lock()
	h.keyCache[name] = ks
	h.keysMu.Unlock()
	return ks
}

// keysFigure3 is the full performance grid: every workload × case ×
// variant. It is a superset of what Figures 4–9, 11, the sweeps, the
// counterfactual, and the run-backed ablations need.
func (h *Harness) keysFigure3() []RunKey {
	return h.keysMemo("figure3", h.buildKeysFigure3)
}

func (h *Harness) buildKeysFigure3() []RunKey {
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
	return h.keysMemo("speedups|"+string(num)+"|"+string(den), func() []RunKey {
		return h.buildKeysSpeedups(num, den)
	})
}

func (h *Harness) buildKeysSpeedups(num, den workload.Variant) []RunKey {
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
	return h.keysMemo("power", h.buildKeysPower)
}

func (h *Harness) buildKeysPower() []RunKey {
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
// reference of that case.
func (h *Harness) keysTable6() []RunKey {
	return h.keysMemo("table6", h.buildKeysTable6)
}

func (h *Harness) buildKeysTable6() []RunKey {
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
	return h.keysMemo("figure9", h.buildKeysFigure9)
}

func (h *Harness) buildKeysFigure9() []RunKey {
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
	return h.keysMemo("representative", h.buildKeysRepresentative)
}

func (h *Harness) buildKeysRepresentative() []RunKey {
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
	return h.keysMemo("tc", h.buildKeysTC)
}

func (h *Harness) buildKeysTC() []RunKey {
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
// workload and has a run-cache result or reference entry once executed;
// PlanCampaign adds the memo keys.
func (h *Harness) PlanAll() []RunKey {
	return h.keysMemo("all", h.buildPlanAll)
}

// PlanCampaign returns everything `cubie all` computes: the memo keys its
// coverage and ablation sections read, then PlanAll's run keys. This is
// the plan "all" of PlanByName, so `cubie dist` hands memos to workers too.
func (h *Harness) PlanCampaign() []RunKey {
	return h.keysMemo("campaign", func() []RunKey {
		keys := []RunKey{
			memoPlanKey(corpusKey("graph-corpus", campaignCorpus, graphCorpusSeed)),
			memoPlanKey("graph-reps"),
			memoPlanKey(corpusKey("matrix-corpus", campaignCorpus, matrixCorpusSeed)),
			memoPlanKey("matrix-reps"),
			memoPlanKey("dasp-padding"),
			memoPlanKey("bfs-relabel"),
		}
		return append(keys, h.PlanAll()...)
	})
}

func (h *Harness) buildPlanAll() []RunKey {
	var keys []RunKey
	keys = append(keys, h.keysFigure3()...)
	keys = append(keys, h.keysPower()...)
	keys = append(keys, h.keysTable6()...)
	keys = append(keys, h.keysFigure9()...)
	keys = append(keys, h.keysRepresentative()...)
	keys = append(keys, h.keysTC()...)
	return keys
}

// PlanNames lists the named plans PlanByName resolves, in campaign order.
// These are the sweep/campaign granularities the serve API exposes.
func PlanNames() []string {
	return []string{"all", "figure3", "power", "table6", "figure9", "representative", "sweep"}
}

// PlanByName resolves a named plan to its key set: "all" is the
// whole-campaign union of memos and runs, "figure3" the full performance
// grid, "power" the Figure 7/8 runs, "table6" the accuracy runs plus
// CPU-serial references, "figure9" the roofline runs, "representative" one
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
		return h.keysTable6(), nil
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
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, k := range keys {
		f, ok := h.flightLocked(k)
		if !ok {
			continue
		}
		select {
		case <-f.done:
			if f.err == nil {
				done++
			}
		default:
		}
	}
	return done
}

// flightLocked returns k's in-memory flight, if one exists: a memo's in
// h.memos, a run's or reference's in h.cache. h.mu must be held.
func (h *Harness) flightLocked(k RunKey) (*flight, bool) {
	if k.Variant == MemoVariant {
		f, ok := h.memos[k.Case]
		return f, ok
	}
	f, ok := h.cache[k.String()]
	return f, ok
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
// any other against the suite — into a job with its cost estimate.
func (h *Harness) resolveJob(k RunKey) (planJob, error) {
	j := planJob{key: k}
	if k.Variant == MemoVariant {
		d, err := resolveMemo(k)
		j.est = d.secs
		return j, err
	}
	var err error
	if j.w, j.c, err = h.resolveKey(k); err != nil {
		return j, err
	}
	j.est = estimate(j)
	return j, nil
}

// ExecuteKey runs one plan key through the harness caches — the unit of
// work a distributed worker executes. A RefVariant key computes the case's
// CPU-serial reference, a MemoVariant key reads or computes a memo, and
// every other key is a workload-variant execution. The result lands in
// the in-memory singleflight cache and, when a run cache is attached, in
// its persistent tiers (the local directory, then the remote store) —
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
	key RunKey
	w   workload.Workload
	c   workload.Case
	est float64 // cost estimate: a memo's traced seconds, a run's size score
}

// estimate scores a run job for scheduling: the product of the case
// dimensions when present, the 1-based case position otherwise (Table 2
// orders cases small to large), with CPU-serial references weighted
// heavily — they run single-threaded and tend to dominate the tail. Only
// the relative order matters; results never depend on it.
func estimate(j planJob) float64 {
	e := 1.0
	for _, d := range j.c.Dims {
		if d > 1 {
			e *= float64(d)
		}
	}
	if e == 1 {
		for i, c := range j.w.Cases() {
			if c.Name == j.c.Name {
				e = float64(i + 1)
				break
			}
		}
	}
	if j.key.Variant == RefVariant {
		e *= 64
	}
	return e
}

// before reports whether job a starts ahead of job b: memos before runs,
// then the larger estimate, then key order. The run estimates are size
// scores, not seconds, so the two kinds are not ranked against each other;
// memos go first because the longest of them outlasts any single run.
func before(a, b planJob) bool {
	if am, bm := a.key.Variant == MemoVariant, b.key.Variant == MemoVariant; am != bm {
		return am
	}
	if a.est != b.est {
		return a.est > b.est
	}
	return a.key.String() < b.key.String()
}

// Execute runs a plan: deduplicate the keys, drop the ones whose flight
// already exists in memory (in flight or completed — the assembly pull
// joins those), order the rest (before), pre-warm the Table 3/4 datasets
// the executing keys will touch, and run everything on a worker pool
// bounded by the host's cores, started strictly in that order. The first
// error in plan order is returned with its key context. Execute composes
// with concurrent figure pulls through the singleflight caches, and
// re-executing an already-satisfied plan costs one map lookup per key.
func (h *Harness) Execute(keys []RunKey) error {
	// Fast path: a plan whose every key already completed an Execute costs
	// one allocation-free map lookup per key — figure drivers re-plan on
	// every call, and a warm driver should pay assembly cost only.
	h.mu.Lock()
	done := true
	for _, k := range keys {
		if !h.planned[k] {
			done = false
			break
		}
	}
	if done {
		h.mu.Unlock()
		return nil
	}
	h.mu.Unlock()

	// Deduplicate, preserving first-seen order (error reporting is
	// deterministic in plan order, independent of pool scheduling).
	seen := map[RunKey]bool{}
	var pending []RunKey
	h.mu.Lock()
	for _, k := range keys {
		if seen[k] {
			metPlanDuplicates.Inc()
			continue
		}
		seen[k] = true
		if _, ok := h.flightLocked(k); ok {
			continue // in flight or done; a failed flight is evicted
		}
		pending = append(pending, k)
	}
	h.mu.Unlock()
	jobs := make([]planJob, len(pending))
	for i, k := range pending {
		j, err := h.resolveJob(k)
		if err != nil {
			return err
		}
		jobs[i] = j
	}
	if len(jobs) == 0 {
		h.markPlanned(keys)
		return nil
	}
	metPlanKeys.Add(uint64(len(jobs)))
	endSpan := trace.HostSpan("harness-plan", fmt.Sprintf("execute %d keys", len(jobs)))
	defer endSpan()

	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return before(jobs[order[a]], jobs[order[b]]) })

	h.prewarmDatasets(jobs)

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
	h.markPlanned(keys)
	return nil
}

// markPlanned records a plan's keys as executed, enabling Execute's
// allocation-free fast path for the re-plans every figure driver issues.
// Keys joined from a still-running prefetch flight are marked optimistically;
// if that flight later fails, the figure's assembly pull retries and
// surfaces the error.
func (h *Harness) markPlanned(keys []RunKey) {
	h.mu.Lock()
	for _, k := range keys {
		h.planned[k] = true
	}
	h.mu.Unlock()
}

// prewarmDatasets kicks off the Table 3/4 dataset syntheses the plan's
// to-be-executed keys depend on, so first-touch synthesis overlaps with
// unrelated runs instead of serializing inside the first kernel that
// needs each dataset. Keys already satisfied by the in-memory or
// persistent cache are skipped — a warm process synthesizes nothing. The
// dataset caches are per-entry singleflight, so the kernel that needs a
// dataset joins the pre-warm instead of re-synthesizing.
func (h *Harness) prewarmDatasets(jobs []planJob) {
	graphs := map[string]bool{}
	matrices := map[string]bool{}
	for _, j := range jobs {
		name := j.c.Dataset
		if name == "" || h.satisfied(j) {
			continue
		}
		if j.w.Name() == "BFS" {
			graphs[name] = true
		} else {
			matrices[name] = true
		}
	}
	for name := range graphs {
		metPlanPrewarmed.Inc()
		go func(name string) { _, _ = graph.SynthesizeShared(name) }(name)
	}
	for name := range matrices {
		metPlanPrewarmed.Inc()
		go func(name string) { _, _ = sparse.SynthesizeShared(name) }(name)
	}
}

// satisfied reports whether a job will complete without executing: its
// flight already exists in memory, or the persistent cache has an entry
// file for it (a cheap stat — a corrupt entry just costs one wasted
// pre-warm skip).
func (h *Harness) satisfied(j planJob) bool {
	h.mu.Lock()
	_, inMem := h.flightLocked(j.key)
	h.mu.Unlock()
	if inMem {
		return true
	}
	if j.key.Variant == MemoVariant {
		d, _ := resolveMemo(j.key)
		return h.rc.Has(d.kind, j.key.Case)
	}
	kind := runcache.KindResult
	if j.key.Variant == RefVariant {
		kind = runcache.KindReference
	}
	return h.rc.Has(kind, runcache.ResultKey(j.key.Workload, j.key.Case, string(j.key.Variant)))
}
