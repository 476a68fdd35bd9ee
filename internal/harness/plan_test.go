package harness

import (
	"strings"
	"testing"

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
// contains the full Figure 3 grid plus the Table 6 references. Its memo
// keys resolve against the memo table; PlanAll itself holds run keys only.
func TestPlanAllCoversCampaign(t *testing.T) {
	h := New()
	keys := h.PlanCampaign()

	seen := map[RunKey]bool{}
	refs := 0
	for _, k := range keys {
		seen[k] = true
		if k.Variant == MemoVariant {
			if _, err := resolveMemo(k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if k.Variant == RefVariant {
			refs++
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
	for _, k := range h.keysTable6() {
		if !seen[k] {
			t.Fatalf("PlanAll missing Table 6 key %s", k)
		}
	}
	for _, k := range h.PlanAll() {
		if k.Variant == MemoVariant {
			t.Fatalf("PlanAll holds memo key %s; memo keys belong to PlanCampaign only", k)
		}
	}
}

// TestEstimateOrdering: references are scheduled ahead of same-case variant
// runs, and dimensioned cases rank by volume — the longest-first heuristic
// the pool relies on to keep the tail short.
func TestEstimateOrdering(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("GEMM")
	if err != nil {
		t.Fatal(err)
	}
	cases := w.Cases()
	first, last := cases[0], cases[len(cases)-1]

	jSmall := planJob{key: RunKey{"GEMM", first.Name, workload.TC}, w: w, c: first}
	jLarge := planJob{key: RunKey{"GEMM", last.Name, workload.TC}, w: w, c: last}
	jRef := planJob{key: RunKey{"GEMM", last.Name, RefVariant}, w: w, c: last}

	if estimate(jLarge) <= estimate(jSmall) {
		t.Fatalf("largest case must outrank smallest: %v <= %v", estimate(jLarge), estimate(jSmall))
	}
	if estimate(jRef) <= estimate(jLarge) {
		t.Fatalf("reference must outrank its variant run: %v <= %v", estimate(jRef), estimate(jLarge))
	}
}
