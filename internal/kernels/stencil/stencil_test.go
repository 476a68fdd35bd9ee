package stencil

import (
	"math"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "Stencil" || w.Quadrant() != 1 {
		t.Fatal("bad metadata")
	}
	cs := w.Cases()
	if len(cs) != 5 || len(cs[0].Dims) != 2 || len(cs[4].Dims) != 3 {
		t.Fatal("Table 2 cases wrong")
	}
	if w.Repeats() != 5000 {
		t.Fatal("Figure 7 repeat count wrong")
	}
}

func TestVariantsNearReference(t *testing.T) {
	w := New()
	c := w.Representative()
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
			t.Fatalf("%s: output length %d want %d", v, len(res.Output), len(ref))
		}
		for i := range ref {
			if d := math.Abs(res.Output[i] - ref[i]); d > 1e-14 {
				t.Fatalf("%s: error %v at %d", v, d, i)
			}
		}
	}
}

func TestTCIdenticalToCC(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Representative(), workload.TC)
	cc, _ := w.Run(w.Representative(), workload.CC)
	for i := range tc.Output {
		if tc.Output[i] != cc.Output[i] {
			t.Fatalf("TC and CC differ at %d", i)
		}
	}
}

func TestTCDiffersFromBaselineInRounding(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Representative(), workload.TC)
	bl, _ := w.Run(w.Representative(), workload.Baseline)
	same := true
	for i := range tc.Output {
		if tc.Output[i] != bl.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("band-pass and direct sweeps are bit-identical; orders should differ")
	}
}

func TestSweepOnConstantField(t *testing.T) {
	// On a field of ones: interior points map to center + 4·side = 1.0,
	// corners lose two neighbors (0.76), edges one (0.88).
	u := onesGrid(32, 32)
	for name, sweep := range map[string]func() []float64{
		"mma":    func() []float64 { return sweepMMA(u).Data },
		"direct": func() []float64 { return sweepDirect(u).Data },
	} {
		out := sweep()
		if v := out[16*32+16]; math.Abs(v-1.0) > 1e-15 {
			t.Errorf("%s: interior = %v, want 1", name, v)
		}
		if v := out[0]; math.Abs(v-(wCenter+2*wSide)) > 1e-15 {
			t.Errorf("%s: corner = %v, want %v", name, v, wCenter+2*wSide)
		}
		if v := out[16]; math.Abs(v-(wCenter+3*wSide)) > 1e-15 {
			t.Errorf("%s: edge = %v, want %v", name, v, wCenter+3*wSide)
		}
	}
}

func TestLargeCasesProfileOnly(t *testing.T) {
	w := New()
	for _, c := range w.Cases()[1:] {
		res, err := w.Run(c, workload.TC)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != nil {
			t.Errorf("%s: should be profile-only", c.Name)
		}
		if res.Profile.TensorFLOPs <= 0 {
			t.Errorf("%s: missing profile", c.Name)
		}
	}
	// 3D cases carry the 7-point essential work.
	res, _ := w.Run(w.Cases()[3], workload.TC)
	want := 14.0 * 512 * 512 * 512
	if res.Work != want {
		t.Errorf("3D essential work %v, want %v", res.Work, want)
	}
}

func TestPerformanceShape(t *testing.T) {
	// Paper: strong TC acceleration over DRStencil (≈2.4–2.7×); CC drops to
	// roughly half of TC (Figure 5, Quadrant I).
	w := New()
	for _, c := range w.Cases() {
		tc, _ := w.Run(c, workload.TC)
		cc, _ := w.Run(c, workload.CC)
		bl, _ := w.Run(c, workload.Baseline)
		for _, spec := range device.All() {
			tTC := sim.Run(spec, tc.Profile).Time
			tCC := sim.Run(spec, cc.Profile).Time
			tBL := sim.Run(spec, bl.Profile).Time
			if sp := tBL / tTC; sp < 1.5 || sp > 3.2 {
				t.Errorf("%s/%s: TC speedup %v outside [1.5, 3.2]", c.Name, spec.Name, sp)
			}
			if r := tTC / tCC; r < 0.35 || r > 0.75 {
				t.Errorf("%s/%s: CC/TC %v outside [0.35, 0.75]", c.Name, spec.Name, r)
			}
		}
	}
}

func TestMemoryBoundTC(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Cases()[2], workload.TC)
	r := sim.Run(device.H200(), tc.Profile)
	if r.Bottleneck != "DRAM" {
		t.Errorf("bottleneck = %s, want DRAM (streaming stencil)", r.Bottleneck)
	}
}

func onesGrid(nx, ny int) *tensor.Matrix {
	m := tensor.NewMatrix(nx, ny)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}

func TestUnknownVariantAndBadCase(t *testing.T) {
	w := New()
	if _, err := w.Run(w.Representative(), "nope"); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := w.Run(workload.Case{Name: "bad", Dims: []int{4}}, workload.TC); err == nil {
		t.Error("malformed case accepted")
	}
	if _, err := w.Reference(w.Cases()[4]); err == nil {
		t.Error("3D reference should exceed budget")
	}
}

// TestOperandSharedReadOnly: every variant's Run and the Reference of the
// representative case read one shared operand, and none writes it.
func TestOperandSharedReadOnly(t *testing.T) {
	w := New()
	c := w.Representative()
	u := w.grid(c)
	want := slices.Clone(u.Data)
	for _, v := range w.Variants() {
		if _, err := w.Run(c, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Reference(c); err != nil {
		t.Fatal(err)
	}
	again := w.grid(c)
	if again != u {
		t.Fatal("the runs of a case must share its operand")
	}
	if !slices.Equal(u.Data, want) {
		t.Fatal("a run or the reference wrote the shared operand")
	}
}
