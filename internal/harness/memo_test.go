package harness

import (
	"bytes"
	"cmp"
	"flag"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"testing"

	"repro/internal/metrics"
	"repro/internal/par"
)

// TestPlanCampaignMemoKeys: the campaign plan holds exactly the seven memo
// keys `cubie all` reads, first, then PlanAll's run keys without the
// references (inputs of the table6 memo), and no memo key names a suite
// workload — a filter on suite workloads passes them by.
// PlanByName("all") is the campaign plan.
func TestPlanCampaignMemoKeys(t *testing.T) {
	h := New()
	keys := h.PlanCampaign()
	want := []RunKey{
		{"coverage", "graph-corpus|199|1", MemoVariant},
		{"coverage", "graph-reps", MemoVariant},
		{"coverage", "matrix-corpus|199|2", MemoVariant},
		{"coverage", "matrix-reps", MemoVariant},
		{"ablation", "dasp-padding", MemoVariant},
		{"ablation", "bfs-relabel", MemoVariant},
		{"accuracy", "table6", MemoVariant},
	}
	var memos []RunKey
	for _, k := range keys {
		if k.Variant == MemoVariant {
			memos = append(memos, k)
		}
	}
	if !slices.Equal(memos, want) || !slices.Equal(keys[:len(want)], want) {
		t.Fatalf("campaign memo keys = %v, want %v leading the plan", memos, want)
	}
	var runs []RunKey
	for _, k := range h.PlanAll() {
		if k.Variant != RefVariant {
			runs = append(runs, k)
		}
	}
	if !slices.Equal(keys[len(want):], runs) {
		t.Fatalf("campaign plan has %d keys, want %d memos + PlanAll's %d non-reference keys",
			len(keys), len(want), len(runs))
	}
	for _, k := range memos {
		if _, err := h.Suite.ByName(k.Workload); err == nil {
			t.Errorf("memo key %s names suite workload %q", k, k.Workload)
		}
	}
	all, err := h.PlanByName("all")
	if err != nil || !slices.Equal(all, keys) {
		t.Fatalf("PlanByName(all) = %d keys, %v; want the campaign plan", len(all), err)
	}
}

// TestExecuteStartsLongestFirst: a cold campaign brings the table6 memo's
// inputs in as jobs of their own, each costing its own cost plus the
// memo's. It starts the costliest job first, and each input's costliest
// reader before its other readers (so a regenerated cost table reorders
// them without failing the test), and the table6 memo, which reads runs,
// after every run.
func TestExecuteStartsLongestFirst(t *testing.T) {
	h := New()
	jobs := campaignOrder(t)
	inTable6 := map[RunKey]bool{}
	for _, k := range h.keysTable6() {
		inTable6[k] = true
	}
	costliest := slices.MaxFunc(jobs, func(a, b planJob) int { return cmp.Compare(a.cost, b.cost) })
	if jobs[0].cost != costliest.cost {
		t.Fatalf("first job = %s (%v s), want the costliest job, %s (%v s)", jobs[0].key, jobs[0].cost, costliest.key, costliest.cost)
	}
	top := map[par.Input]float64{}
	for _, j := range jobs {
		for _, in := range j.in {
			top[in] = max(top[in], j.cost)
		}
	}
	started := map[par.Input]bool{}
	refs := 0
	for _, j := range jobs {
		for _, in := range j.in {
			if !started[in] && j.cost != top[in] {
				t.Errorf("%s (%v s) starts ahead of the costliest reader (%v s) of an input it reads", j.key, j.cost, top[in])
			}
			started[in] = true
		}
		if j.key.Variant == RefVariant {
			refs++
		}
		if want := cost(j) + memoSecs["table6"]; inTable6[j.key] && j.cost != want {
			t.Errorf("table6 input %s ranks at %v, want its cost plus the memo's, %v", j.key, j.cost, want)
		}
	}
	inputs := 0
	for _, k := range h.keysTable6() {
		if k.Variant == RefVariant {
			inputs++
		}
	}
	if refs != inputs {
		t.Fatalf("cold campaign starts %d references, want the table6 memo's %d", refs, inputs)
	}
	if last := jobs[len(jobs)-1].key; last != memoPlanKey("table6") {
		t.Fatalf("last job = %s, want the table6 memo", last)
	}
}

// TestMemoOneFlightWithoutCache: with no run cache, concurrent readers
// and a plan executing the same memo share one computation, and Progress
// counts the memo key once it is done.
func TestMemoOneFlightWithoutCache(t *testing.T) {
	h := New()
	key := memoPlanKey("graph-reps")
	computed := metMemosComputed.Value()
	var wg sync.WaitGroup
	vals := make([][][]float64, 4)
	for i := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := memo[[][]float64](h, key.Case)
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}()
	}
	if err := h.Execute([]RunKey{key}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := metMemosComputed.Value() - computed; got != 1 {
		t.Fatalf("computed graph-reps %d times, want 1", got)
	}
	for _, v := range vals[1:] {
		if len(v) != 5 || &v[0] != &vals[0][0] {
			t.Fatal("concurrent readers must share the one computed value")
		}
	}
	if got := h.Progress([]RunKey{key, memoPlanKey("dasp-padding")}); got != 1 {
		t.Fatalf("Progress = %d, want 1 (graph-reps done, dasp-padding not started)", got)
	}
	if _, err := h.memoValue("no-such-memo"); err == nil {
		t.Fatal("an unknown memo must error")
	}
}

// TestRenderAllComputesEachMemoOnce: with no run cache, a whole campaign
// — the campaign plan, then the renderers — computes each of the
// seven memos exactly once, and Progress then counts every campaign key.
func TestRenderAllComputesEachMemoOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("a whole cold campaign")
	}
	h := New()
	computed := metMemosComputed.Value()
	var out bytes.Buffer
	if err := h.RenderAll(&out); err != nil {
		t.Fatal(err)
	}
	if got := metMemosComputed.Value() - computed; got != 7 {
		t.Fatalf("cacheless RenderAll computed %d memos, want 7 (each once)", got)
	}
	seen := map[RunKey]bool{}
	var distinct []RunKey
	for _, k := range h.PlanCampaign() {
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, k)
		}
	}
	if got := h.Progress(distinct); got != len(distinct) {
		t.Fatalf("Progress after RenderAll = %d, want %d", got, len(distinct))
	}
}

var releaseChild = flag.Bool("release-child", false,
	"run TestColdCampaignReleasesInputs's campaign in this process (its parent test starts it)")

// TestColdCampaignReleasesInputs: a cold RenderAll on a fresh harness is one
// plan (191 keys: 175 runs, 9 references and 7 memos) whose figures then
// execute nothing, rebuilds no input, and leaves no input, dense operand,
// representative output or reference live: once it returns and the GC
// has run, the heap holds at most 64 MB while the harness stays reachable
// (~449 MB when every input was kept until exit). The campaign runs in a
// child process, so the shared datasets other tests leave cached (a build
// no plan counts stays) neither count against the heap nor turn into
// rebuilds.
func TestColdCampaignReleasesInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("a whole cold campaign")
	}
	if !*releaseChild {
		cmd := exec.Command(os.Args[0], "-test.run=^TestColdCampaignReleasesInputs$", "-test.v", "-release-child")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		t.Logf("%s", out)
		// Peak RSS depends on the host, so it is reported, not asserted
		// (Maxrss is in kilobytes on Linux).
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			t.Logf("child peak RSS (getrusage maxrss): %.1f MB", float64(ru.Maxrss)/1024)
		}
		return
	}
	h := New()
	jobs, err := h.schedule(h.pending(h.PlanCampaign()))
	if err != nil {
		t.Fatal(err)
	}
	rebuilds := metrics.NewCounter("cubie_input_rebuilds_total", "")
	planned, rebuilt := metPlanKeys.Value(), rebuilds.Value()
	if err := h.RenderAll(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := metPlanKeys.Value() - planned; got != uint64(len(jobs)) {
		t.Errorf("cold RenderAll planned %d keys, want the campaign plan's %d", got, len(jobs))
	}
	if got := rebuilds.Value() - rebuilt; got != 0 {
		t.Errorf("cold RenderAll rebuilt %d inputs, want 0", got)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(h)
	const limit = 64 << 20
	t.Logf("%d plan keys; live heap after RenderAll: %.1f MB", len(jobs), float64(ms.HeapAlloc)/(1<<20))
	if ms.HeapAlloc > limit {
		t.Errorf("live heap after RenderAll = %.1f MB, want at most %d MB", float64(ms.HeapAlloc)/(1<<20), limit>>20)
	}
}
