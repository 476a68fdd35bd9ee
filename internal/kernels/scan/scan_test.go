package scan

import (
	"math"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "Scan" || w.Quadrant() != 2 {
		t.Fatal("bad metadata")
	}
	cs := w.Cases()
	if len(cs) != 5 || cs[0].Name != "64" || cs[4].Dims[0] != 1024 {
		t.Fatal("Table 2 sizes wrong")
	}
	if w.Repeats() != 25000 {
		t.Fatal("Figure 7 repeat count wrong")
	}
}

func TestConstantMatrices(t *testing.T) {
	// U upper-triangular ones, Lₛ strictly-lower ones, E₇ row-7 ones.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			u, l, e := upperOnes[i*8+j], lowerStrict[i*8+j], broadcast7[i*8+j]
			if (i <= j) != (u == 1) || (i > j) != (l == 1) || (i == 7) != (e == 1) {
				t.Fatalf("constant matrices wrong at (%d,%d): %v %v %v", i, j, u, l, e)
			}
		}
	}
}

func TestAllVariantsNearReference(t *testing.T) {
	w := New()
	for _, c := range w.Cases() {
		ref, err := w.Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range w.Variants() {
			res, err := w.Run(c, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) != len(ref) {
				t.Fatalf("%s/%s: length %d want %d", c.Name, v, len(res.Output), len(ref))
			}
			for i := range ref {
				// Prefix sums over long segments accumulate; compare
				// relative to the running magnitude.
				scale := math.Abs(ref[i]) + 10
				if d := math.Abs(res.Output[i]-ref[i]) / scale; d > 1e-13 {
					t.Fatalf("%s/%s: rel error %v at %d", c.Name, v, d, i)
				}
			}
		}
	}
}

func TestTCIdenticalToCC(t *testing.T) {
	w := New()
	for _, c := range w.Cases() {
		tc, _ := w.Run(c, workload.TC)
		cc, _ := w.Run(c, workload.CC)
		for i := range tc.Output {
			if tc.Output[i] != cc.Output[i] {
				t.Fatalf("%s: TC and CC differ at %d", c.Name, i)
			}
		}
	}
}

func TestVariantOrdersDiverge(t *testing.T) {
	w := New()
	c := w.Representative()
	tc, _ := w.Run(c, workload.TC)
	cce, _ := w.Run(c, workload.CCE)
	bl, _ := w.Run(c, workload.Baseline)
	differs := func(a, b []float64) bool {
		for i := range a {
			if a[i] != b[i] {
				return true
			}
		}
		return false
	}
	if !differs(tc.Output, cce.Output) {
		t.Error("CC-E bit-identical to TC")
	}
	if !differs(tc.Output, bl.Output) {
		t.Error("baseline bit-identical to TC")
	}
}

func TestQuadrantIIUtilization(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Representative(), workload.TC)
	if tc.InputUtil != 0.5 || tc.OutputUtil != 1 {
		t.Errorf("Quadrant II utilization: in %v out %v, want 0.5 / 1",
			tc.InputUtil, tc.OutputUtil)
	}
}

func TestPerformanceShape(t *testing.T) {
	// Paper: TC beats CUB (1.3–1.8×); CC delivers <45% of TC; CC-E lands
	// at 0.34–0.45× of TC.
	w := New()
	for _, c := range w.Cases() {
		tc, _ := w.Run(c, workload.TC)
		cc, _ := w.Run(c, workload.CC)
		cce, _ := w.Run(c, workload.CCE)
		bl, _ := w.Run(c, workload.Baseline)
		for _, spec := range device.All() {
			tTC := sim.Run(spec, tc.Profile).Time
			tCC := sim.Run(spec, cc.Profile).Time
			tCCE := sim.Run(spec, cce.Profile).Time
			tBL := sim.Run(spec, bl.Profile).Time
			if sp := tBL / tTC; sp < 1.15 || sp > 2.4 {
				t.Errorf("%s/%s: TC speedup %v outside [1.15, 2.4]", c.Name, spec.Name, sp)
			}
			if r := tTC / tCC; r > 0.55 {
				t.Errorf("%s/%s: CC/TC %v should be well below TC", c.Name, spec.Name, r)
			}
			if r := tTC / tCCE; r < 0.28 || r > 0.60 {
				t.Errorf("%s/%s: CC-E/TC %v outside [0.28, 0.60]", c.Name, spec.Name, r)
			}
		}
	}
}

func TestUnknownVariantAndBadCase(t *testing.T) {
	w := New()
	if _, err := w.Run(w.Representative(), "nope"); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := w.Run(workload.Case{Name: "bad"}, workload.TC); err == nil {
		t.Error("malformed case accepted")
	}
}

// TestOperandSharedReadOnly: every variant's Run and the Reference of the
// representative case read one shared operand, and none writes it.
func TestOperandSharedReadOnly(t *testing.T) {
	w := New()
	c := w.Representative()
	data := w.data(c)
	want := slices.Clone(data)
	for _, v := range w.Variants() {
		if _, err := w.Run(c, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Reference(c); err != nil {
		t.Fatal(err)
	}
	again := w.data(c)
	if &again[0] != &data[0] {
		t.Fatal("the runs of a case must share its operand")
	}
	if !slices.Equal(data, want) {
		t.Fatal("a run or the reference wrote the shared operand")
	}
}
