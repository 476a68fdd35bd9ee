package harness

import (
	"bytes"
	"slices"
	"sync"
	"testing"
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
// inputs in as jobs of their own, each ranked by its cost plus the memo's.
// It starts the four longest jobs first — the matrix corpus, the relabel
// ablation, the graph corpus and the CPU-serial FFT reference, in the
// order of the committed cost table — and the table6 memo, which reads
// runs, after every run.
func TestExecuteStartsLongestFirst(t *testing.T) {
	h := New()
	jobs := startOrder(t, h, h.PlanCampaign())
	ref := func(name string) RunKey {
		w, err := h.Suite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return RunKey{name, w.Representative().Name, RefVariant}
	}
	want := []RunKey{memoPlanKey("matrix-corpus|199|2"), memoPlanKey("bfs-relabel"), memoPlanKey("graph-corpus|199|1"), ref("FFT")}
	var got []RunKey
	for _, j := range jobs[:len(want)] {
		got = append(got, j.key)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("first started = %v, want %v", got, want)
	}
	inTable6 := map[RunKey]bool{}
	for _, k := range h.keysTable6() {
		inTable6[k] = true
	}
	refs := 0
	for _, j := range jobs {
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
// — the prefetched plan and the renderers together — computes each of the
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
