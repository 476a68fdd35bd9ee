package harness

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/workload"
)

// TestExecuteDedupsAndRunsOnce: a plan with duplicate keys executes each
// distinct key exactly once, and re-executing the same plan starts nothing.
func TestExecuteDedupsAndRunsOnce(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("GEMV")
	if err != nil {
		t.Fatal(err)
	}
	small := w.Cases()[0].Name
	keys := []RunKey{
		{"GEMV", small, workload.TC},
		{"GEMV", small, workload.TC}, // duplicate
		{"GEMV", small, workload.Baseline},
	}

	started := metRunsStarted.Value()
	dups := metPlanDuplicates.Value()
	planned := metPlanKeys.Value()

	if err := h.Execute(keys); err != nil {
		t.Fatal(err)
	}
	if got := metRunsStarted.Value() - started; got != 2 {
		t.Fatalf("started %d runs, want 2 (one per distinct key)", got)
	}
	if got := metPlanDuplicates.Value() - dups; got != 1 {
		t.Fatalf("counted %d duplicates, want 1", got)
	}
	if got := metPlanKeys.Value() - planned; got != 2 {
		t.Fatalf("planned %d keys, want 2", got)
	}

	// The whole plan is already in the singleflight cache: a second Execute
	// must start zero runs.
	if err := h.Execute(keys); err != nil {
		t.Fatal(err)
	}
	if got := metRunsStarted.Value() - started; got != 2 {
		t.Fatalf("re-Execute started %d extra runs, want 0", got-2)
	}

	// And the figure assembly path joins the same flights.
	res, err := h.run(w, w.Cases()[0], workload.TC)
	if err != nil || res == nil {
		t.Fatalf("post-plan run: %+v, %v", res, err)
	}
	if got := metRunsStarted.Value() - started; got != 2 {
		t.Fatal("assembly pull after Execute must not start a run")
	}
}

// TestExecuteReleasesInputs: two concurrent Executes of one plan claim
// each key once, so its keys are counted and run once; the plan counts
// the reads of the case's shared operand and drops it after the last, so
// the next plan that reads it builds it again (one counted rebuild); a key
// executed outside any plan (ExecuteKey) counts no use, so the operand it
// builds stays.
func TestExecuteReleasesInputs(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("GEMV")
	if err != nil {
		t.Fatal(err)
	}
	c := w.Representative().Name
	keys := []RunKey{{"GEMV", c, workload.TC}, {"GEMV", c, workload.CC}, {"GEMV", c, RefVariant}}
	rebuilds := metrics.NewCounter("cubie_input_rebuilds_total", "")
	started, planned, rebuilt := metRunsStarted.Value(), metPlanKeys.Value(), rebuilds.Value()

	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := h.Execute(keys); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := metPlanKeys.Value() - planned; got != 3 {
		t.Fatalf("two concurrent plans counted %d keys, want 3 (each claimed once)", got)
	}
	if got := metRunsStarted.Value() - started; got != 3 {
		t.Fatalf("two concurrent plans started %d executions, want 3", got)
	}
	if got := rebuilds.Value() - rebuilt; got != 0 {
		t.Fatalf("%d rebuilds inside one plan, want 0", got)
	}

	if err := h.Execute([]RunKey{{"GEMV", c, workload.Baseline}}); err != nil {
		t.Fatal(err)
	}
	if got := rebuilds.Value() - rebuilt; got != 1 {
		t.Fatalf("a plan after the operand's last planned use rebuilt %d inputs, want 1", got)
	}
	// Uncounted, the operand ExecuteKey builds stays for the next reader.
	if err := h.ExecuteKey(RunKey{"GEMV", c, workload.CCE}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Reference(w.Representative()); err != nil {
		t.Fatal(err)
	}
	if got := rebuilds.Value() - rebuilt; got != 2 {
		t.Fatalf("%d rebuilds, want 2: one for ExecuteKey, none for the reader after it", got)
	}
}

// TestExecuteReferenceKeys: RefVariant keys compute the CPU-serial
// reference through the same cache, shared with h.reference.
func TestExecuteReferenceKeys(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("GEMV")
	if err != nil {
		t.Fatal(err)
	}
	small := w.Cases()[0]

	started := metRunsStarted.Value()
	if err := h.Execute([]RunKey{{"GEMV", small.Name, RefVariant}}); err != nil {
		t.Fatal(err)
	}
	if got := metRunsStarted.Value() - started; got != 1 {
		t.Fatalf("reference plan started %d runs, want 1", got)
	}
	out, err := h.reference(w, small)
	if err != nil || len(out) == 0 {
		t.Fatalf("reference after plan: len=%d err=%v", len(out), err)
	}
	if got := metRunsStarted.Value() - started; got != 1 {
		t.Fatal("h.reference after Execute must join the cached flight")
	}
}

func TestExecuteRejectsUnknownKeys(t *testing.T) {
	h := New()
	err := h.Execute([]RunKey{{"NoSuchKernel", "x", workload.TC}})
	if err == nil || !strings.Contains(err.Error(), "plan NoSuchKernel|x|TC") {
		t.Fatalf("unknown workload: %v", err)
	}
	err = h.Execute([]RunKey{{"GEMV", "no-such-case", workload.TC}})
	if err == nil || !strings.Contains(err.Error(), "plan GEMV|no-such-case|TC") {
		t.Fatalf("unknown case: %v", err)
	}
}

// TestPlanAllCoversCampaign: the whole-campaign plan resolves cleanly and
// contains the full Figure 3 grid and the Table 6 runs. Its memo keys
// resolve against the memo table. PlanAll holds run keys only, the Table 6
// references among them; the campaign holds no reference, because the
// references are inputs of its table6 memo.
func TestPlanAllCoversCampaign(t *testing.T) {
	h := New()
	keys := h.PlanCampaign()

	seen := map[RunKey]bool{}
	for _, k := range keys {
		seen[k] = true
		if k.Variant == MemoVariant {
			if _, err := resolveMemo(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if k.Variant == RefVariant {
			t.Fatalf("campaign plan holds reference key %s; references are table6 memo inputs", k)
		}
	}
	refs := 0
	for _, k := range h.PlanAll() {
		if k.Variant == MemoVariant {
			t.Fatalf("PlanAll holds memo key %s; memo keys belong to PlanCampaign only", k)
		}
		if k.Variant == RefVariant {
			refs++
		} else if !seen[k] {
			t.Fatalf("campaign plan missing PlanAll run key %s", k)
		}
		w, err := h.Suite.ByName(k.Workload)
		if err != nil {
			t.Fatalf("plan key %s: %v", k, err)
		}
		if _, err := workload.FindCase(w, k.Case); err != nil {
			t.Fatalf("plan key %s: %v", k, err)
		}
		if k.Variant != RefVariant && !workload.HasVariant(w, k.Variant) {
			t.Fatalf("plan key %s: variant not implemented", k)
		}
	}
	if refs == 0 {
		t.Fatal("PlanAll must include the Table 6 reference keys")
	}
	for _, k := range h.keysFigure3() {
		if !seen[k] {
			t.Fatalf("PlanAll missing Figure 3 key %s", k)
		}
	}
	inputs := memoDefs["table6"].inputs(h)
	if !slices.Equal(inputs, h.keysTable6()) {
		t.Fatalf("table6 memo inputs = %v, want the Table 6 keys", inputs)
	}
	for _, k := range inputs {
		if k.Variant != RefVariant && !seen[k] {
			t.Fatalf("campaign plan missing Table 6 key %s", k)
		}
	}
}

// campaignOrder returns the jobs a cold campaign's Execute on a fresh
// harness runs, in the order it starts them.
func campaignOrder(t *testing.T) []planJob {
	t.Helper()
	h := New()
	jobs, err := h.schedule(h.pending(h.PlanCampaign()))
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// profileOnly reports whether j is a run of a non-representative case,
// which is profiled, not executed.
func profileOnly(j planJob) bool {
	return j.w != nil && j.key.Variant != RefVariant && j.c.Name != j.w.Representative().Name
}

// TestCostOrdering: a run costs its workload's executes entry on the
// representative case and its profiles entry on any other case, a
// reference its reference entry and a memo its own. In a cold campaign's
// start order ranks never rise, costs never rise within one rank, the
// table6 memo starts last, and the FFT reference starts ahead of every
// profile-only run of lower rank.
func TestCostOrdering(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	rep, large := w.Cases()[0], w.Cases()[len(w.Cases())-1]
	if rep.Name != w.Representative().Name {
		t.Fatalf("GEMM representative is %s, want its first case", w.Representative().Name)
	}
	for _, tc := range []struct {
		j    planJob
		want float64
	}{
		{planJob{key: RunKey{"GEMM", rep.Name, workload.TC}, w: w, c: rep}, runSecs["GEMM"].executes},
		{planJob{key: RunKey{"GEMM", large.Name, workload.TC}, w: w, c: large}, runSecs["GEMM"].profiles},
		{planJob{key: RunKey{"GEMM", rep.Name, RefVariant}, w: w, c: rep}, runSecs["GEMM"].reference},
		{planJob{key: memoPlanKey(corpusKey("matrix-corpus", 199, 2))}, memoSecs["matrix-corpus"]},
	} {
		if got := cost(tc.j); got != tc.want {
			t.Errorf("cost(%s) = %v, want %v", tc.j.key, got, tc.want)
		}
	}

	jobs := campaignOrder(t)
	if last := jobs[len(jobs)-1].key; last != memoPlanKey("table6") {
		t.Fatalf("last job = %s, want the table6 memo", last)
	}
	fft := -1
	for i, j := range jobs[:len(jobs)-1] {
		if i > 0 {
			prev := jobs[i-1]
			if j.rank > prev.rank {
				t.Fatalf("job %d (%s, rank %vs) starts after %s of lower rank %vs", i, j.key, j.rank, prev.key, prev.rank)
			}
			if j.rank == prev.rank && j.cost > prev.cost {
				t.Fatalf("job %d (%s, %vs) starts after the cheaper %s (%vs) of its rank", i, j.key, j.cost, prev.key, prev.cost)
			}
		}
		if j.key.Workload == "FFT" && j.key.Variant == RefVariant {
			fft = i
		}
	}
	if fft < 0 {
		t.Fatal("cold campaign does not start the FFT reference")
	}
	for _, j := range jobs[:fft] {
		if profileOnly(j) && j.rank < jobs[fft].rank {
			t.Fatalf("profile-only run %s of rank %vs starts ahead of the FFT reference (%vs)", j.key, j.rank, jobs[fft].rank)
		}
	}
}

// openInputs walks a start order: an input is open from its first
// reader's start position up to its last reader's. It returns the open
// positions summed over every input, and the most inputs open at once.
func openInputs(jobs []planJob) (sum, peak int) {
	first, last := map[par.Input]int{}, map[par.Input]int{}
	for i, j := range jobs {
		for _, in := range j.in {
			if _, ok := first[in]; !ok {
				first[in] = i
			}
			last[in] = i
		}
	}
	open := make([]int, len(jobs)+1) // inputs opening minus closing at each position
	for in, f := range first {
		sum += last[in] - f
		open[f]++
		open[last[in]]--
	}
	n := 0
	for _, d := range open {
		n += d
		peak = max(peak, n)
	}
	return sum, peak
}

// TestScheduleStartsReadersTogether: a cold campaign starts the readers of
// each shared input close together, so few inputs are built and waiting
// for a reader at once. Ranked by cost alone (the readers of a Table 3/4
// dataset or BFS case input behind dasp-padding and bfs-relabel, which
// build them first), the 191 jobs held 71 inputs open over 1,119 positions
// in all, 17 at the peak; ranked with each input's costliest reader, 376
// and 10.
func TestScheduleStartsReadersTogether(t *testing.T) {
	sum, peak := openInputs(campaignOrder(t))
	t.Logf("open inputs: %d positions in all, %d at the peak", sum, peak)
	if sum > 400 || peak > 10 {
		t.Fatalf("open inputs: %d positions in all (want ≤ 400), %d at the peak (want ≤ 10)", sum, peak)
	}
}
