package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func TestAblateOverlap(t *testing.T) {
	h := New()
	rows, err := h.AblateOverlap(device.H200())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	faster := 0
	for _, r := range rows {
		// A pure bottleneck model can only speed kernels up.
		if r.Ablated > r.Baseline*1.0001 {
			t.Errorf("%s: removing the overlap term slowed it down (%v → %v)",
				r.Subject, r.Baseline, r.Ablated)
		}
		if r.Ablated < r.Baseline*0.999 {
			faster++
		}
	}
	// The term must matter for most CC variants (it is what creates the
	// Figure 5 gaps on memory-bound kernels).
	if faster < 6 {
		t.Errorf("overlap term only affected %d/10 CC kernels", faster)
	}
}

func TestAblateConstCache(t *testing.T) {
	h := New()
	rows, err := h.AblateConstCache(device.H200())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ablated <= r.Baseline {
			t.Errorf("%s: losing the constant cache should cost time (%v → %v)",
				r.Subject, r.Baseline, r.Ablated)
		}
	}
}

func TestAblateDASPPadding(t *testing.T) {
	rows, err := AblateDASPPadding()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		ratio := r.Ratio()
		// DASP issues 16 FLOPs per payload slot vs 2 essential: at least
		// 8× and at most ~9× (padding adds a little more).
		if ratio < 7.9 || ratio > 12 {
			t.Errorf("%s: redundancy ratio %v outside [7.9, 12]", r.Subject, ratio)
		}
	}
}

func TestAblateBFSRelabel(t *testing.T) {
	rows, err := AblateBFSRelabel(New())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.Ratio() > 1.05 {
			improved++
		}
	}
	// Relabeling must shrink the bitmap footprint for most graph classes
	// (the Mycielskian's dense wiring gains little).
	if improved < 3 {
		t.Errorf("relabeling only helped %d/5 graphs", improved)
	}
}

// TestBFSRelabelMemoReadsCaseInputs: in a plan that profiles the BFS
// cases, the bfs-relabel memo reads their relabeled graphs and slice sets,
// so it synthesizes and relabels nothing itself: the plan asks for each
// Table 3 graph once, for its case's input (five hits and misses together;
// an earlier test may have left a graph cached), and a memo that asked for
// the graphs itself would ask five more times.
func TestBFSRelabelMemoReadsCaseInputs(t *testing.T) {
	h := New()
	w, err := h.Suite.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	keys := []RunKey{memoPlanKey("bfs-relabel")}
	for _, c := range w.Cases() {
		keys = append(keys, RunKey{w.Name(), c.Name, workload.TC})
	}
	hitsC := metrics.NewCounter("cubie_graph_synthesize_hits_total", "")
	missesC := metrics.NewCounter("cubie_graph_synthesize_misses_total", "")
	hits, misses := hitsC.Value(), missesC.Value()
	computed := metMemosComputed.Value()
	if err := h.Execute(keys); err != nil {
		t.Fatal(err)
	}
	rows, err := memo[[]AblationRow](h, "bfs-relabel")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || metMemosComputed.Value()-computed != 1 {
		t.Fatalf("%d rows from %d memo computations, want 5 from 1", len(rows), metMemosComputed.Value()-computed)
	}
	if dh, dm := hitsC.Value()-hits, missesC.Value()-misses; dh+dm != 5 {
		t.Fatalf("the plan moved the graph synthesis hits by %d and misses by %d, want 5 together", dh, dm)
	}
}

func TestAblateSpGEMMPairing(t *testing.T) {
	h := New()
	rows, err := AblateSpGEMMPairing(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Ratio() < 1.9 || r.Ratio() > 2.1 {
			t.Errorf("%s: pairing ratio %v, want ≈2", r.Subject, r.Ratio())
		}
	}
}

func TestRenderAblations(t *testing.T) {
	rows, err := AblateDASPPadding()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderAblations(&buf, rows)
	if !strings.Contains(buf.String(), "dasp-padding") {
		t.Error("render missing study header")
	}
}
