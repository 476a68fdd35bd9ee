package reduction

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
	if w.Name() != "Reduction" || w.Quadrant() != 3 {
		t.Fatal("bad metadata")
	}
	if len(w.Cases()) != 5 || w.Repeats() != 50000 {
		t.Fatal("cases / repeats wrong")
	}
}

func TestConstantMatrices(t *testing.T) {
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			r, c := onesRow0[i*8+j], onesCol0[i*8+j]
			if (i == 0) != (r == 1) || (j == 0) != (c == 1) {
				t.Fatalf("constant matrices wrong at (%d,%d)", i, j)
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
				scale := math.Abs(ref[i]) + 10
				if d := math.Abs(res.Output[i]-ref[i]) / scale; d > 1e-13 {
					t.Fatalf("%s/%s: rel error %v at segment %d", c.Name, v, d, i)
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
	c := w.Cases()[4] // 1024: long enough for order effects to surface
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

func TestQuadrantIIIUtilization(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Representative(), workload.TC)
	if tc.InputUtil != 0.5 {
		t.Errorf("input utilization %v, want 0.5 (constant operand)", tc.InputUtil)
	}
	if tc.OutputUtil != 1.0/64 {
		t.Errorf("output utilization %v, want 1/64 (single element)", tc.OutputUtil)
	}
}

func TestPerformanceShape(t *testing.T) {
	// Paper: TC 1.3–1.6× over CUB; CC <40% of TC; CC-E 0.66–0.79× of TC.
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
			if sp := tBL / tTC; sp < 1.15 || sp > 1.9 {
				t.Errorf("%s/%s: TC speedup %v outside [1.15, 1.9]", c.Name, spec.Name, sp)
			}
			if r := tTC / tCC; r > 0.5 {
				t.Errorf("%s/%s: CC/TC %v, want well below TC", c.Name, spec.Name, r)
			}
			if r := tTC / tCCE; r < 0.55 || r > 0.90 {
				t.Errorf("%s/%s: CC-E/TC %v outside [0.55, 0.90]", c.Name, spec.Name, r)
			}
		}
	}
}

func TestLowArithmeticIntensity(t *testing.T) {
	// Figure 9 places Reduction around 10⁻¹ FLOPs/byte... for the essential
	// computation; the TC variant's redundant MMA FLOPs raise the issued
	// intensity but the kernel stays memory-bound.
	w := New()
	tc, _ := w.Run(w.Representative(), workload.TC)
	r := sim.Run(device.H200(), tc.Profile)
	if r.Bottleneck != "DRAM" {
		t.Errorf("bottleneck = %s, want DRAM", r.Bottleneck)
	}
	cce, _ := w.Run(w.Representative(), workload.CCE)
	if ai := cce.Profile.ArithmeticIntensity(); ai > 0.5 {
		t.Errorf("essential intensity %v, want ~10⁻¹", ai)
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
