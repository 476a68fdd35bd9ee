package harness

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// TestPlanCampaignMemoKeys: the campaign plan holds exactly the six memo
// keys `cubie all` reads, first, and none of them names a suite workload —
// a filter on suite workloads passes them by. PlanByName("all") is the
// campaign plan.
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
	if len(keys) != len(want)+len(h.PlanAll()) {
		t.Fatalf("campaign plan has %d keys, want %d memos + %d runs", len(keys), len(want), len(h.PlanAll()))
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

// TestExecuteStartsMemosLongestFirst: memos order ahead of every run key,
// the longest (by traced seconds) first.
func TestExecuteStartsMemosLongestFirst(t *testing.T) {
	h := New()
	var jobs []planJob
	for _, k := range h.PlanCampaign() {
		j, err := h.resolveJob(k)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	slices.SortStableFunc(jobs, func(a, b planJob) int {
		if before(a, b) {
			return -1
		}
		if before(b, a) {
			return 1
		}
		return 0
	})
	var got []string
	for _, j := range jobs[:3] {
		got = append(got, j.key.Case)
	}
	if want := []string{"matrix-corpus|199|2", "bfs-relabel", "graph-corpus|199|1"}; !slices.Equal(got, want) {
		t.Fatalf("first three started = %v, want %v", got, want)
	}
	for i, j := range jobs {
		if memo := j.key.Variant == MemoVariant; memo != (i < 6) {
			t.Fatalf("job %d (%s): memos must start before every run", i, j.key)
		}
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
// — the prefetched plan and the renderers together — computes each of the
// six memos exactly once, and Progress then counts every campaign key.
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
	if got := metMemosComputed.Value() - computed; got != 6 {
		t.Fatalf("cacheless RenderAll computed %d memos, want 6 (each once)", got)
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
