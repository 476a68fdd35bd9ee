package fft

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "FFT" || w.Quadrant() != 1 {
		t.Fatal("bad metadata")
	}
	if len(w.Cases()) != 5 || w.Cases()[0].Name != "256x256" {
		t.Fatal("Table 2 cases wrong")
	}
	if w.Repeats() != 400 {
		t.Fatal("Figure 7 repeat count wrong")
	}
}

func TestSplit(t *testing.T) {
	cases := map[int][2]int{256: {16, 16}, 512: {32, 16}, 1024: {32, 32}}
	for l, want := range cases {
		n1, n2 := split(l)
		if n1 != want[0] || n2 != want[1] {
			t.Errorf("split(%d) = %d,%d want %v", l, n1, n2, want)
		}
		if n1*n2 != l {
			t.Errorf("split(%d) does not factor", l)
		}
	}
}

func TestPlanMatchesDirectDFT1D(t *testing.T) {
	for _, l := range []int{256, 512} {
		re := make([]float64, l)
		im := make([]float64, l)
		for i := range re {
			re[i] = math.Sin(0.1*float64(i)) + 0.3
			im[i] = math.Cos(0.07 * float64(i))
		}
		wantRe := append([]float64(nil), re...)
		wantIm := append([]float64(nil), im...)
		directDFT(wantRe, wantIm, newTwiddles(l))
		newPlanMMA(l).transform(re, im)
		for i := 0; i < l; i++ {
			scale := math.Abs(wantRe[i]) + math.Abs(wantIm[i]) + 1
			if math.Abs(re[i]-wantRe[i])/scale > 1e-11 ||
				math.Abs(im[i]-wantIm[i])/scale > 1e-11 {
				t.Fatalf("l=%d: four-step deviates at %d: (%v,%v) vs (%v,%v)",
					l, i, re[i], im[i], wantRe[i], wantIm[i])
			}
		}
	}
}

func TestRadix2MatchesDirectDFT(t *testing.T) {
	const l = 256
	re := make([]float64, l)
	im := make([]float64, l)
	for i := range re {
		re[i] = float64(i%7) - 3
	}
	wantRe := append([]float64(nil), re...)
	wantIm := append([]float64(nil), im...)
	directDFT(wantRe, wantIm, newTwiddles(l))
	radix2(re, im)
	for i := 0; i < l; i++ {
		scale := math.Abs(wantRe[i]) + math.Abs(wantIm[i]) + 1
		if math.Abs(re[i]-wantRe[i])/scale > 1e-11 {
			t.Fatalf("radix2 deviates at %d", i)
		}
	}
}

// directDFTPerTerm is the reference DFT as it was before the twiddle
// tables: math.Cos and math.Sin evaluated inside the loop for every term.
// It is the bitwise oracle for directDFT and direct2D.
func directDFTPerTerm(re, im []float64) {
	n := len(re)
	oRe := make([]float64, n)
	oIm := make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si float64
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			cr, ci := math.Cos(ang), math.Sin(ang)
			sr += re[j]*cr - im[j]*ci
			si += re[j]*ci + im[j]*cr
		}
		oRe[k], oIm[k] = sr, si
	}
	copy(re, oRe)
	copy(im, oIm)
}

func testSignal(n int, seed float64) (re, im []float64) {
	re = make([]float64, n)
	im = make([]float64, n)
	for i := range re {
		re[i] = math.Sin(seed*float64(i)) + 0.3
		im[i] = math.Cos(0.7*seed*float64(i)) - 0.1
	}
	return re, im
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, per-term oracle %v", what, i, got[i], want[i])
		}
	}
}

func TestDirectDFTMatchesPerTerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 256} {
		re, im := testSignal(n, 0.13)
		wantRe := append([]float64(nil), re...)
		wantIm := append([]float64(nil), im...)
		directDFTPerTerm(wantRe, wantIm)
		directDFT(re, im, newTwiddles(n))
		sameBits(t, fmt.Sprintf("n=%d re", n), re, wantRe)
		sameBits(t, fmt.Sprintf("n=%d im", n), im, wantIm)
	}
}

func TestDirect2DMatchesPerTerm(t *testing.T) {
	for _, d := range [][2]int{{1, 1}, {8, 8}, {3, 17}, {17, 8}, {64, 32}} {
		r, c := d[0], d[1]
		re, im := testSignal(r*c, 0.29)
		wantRe := append([]float64(nil), re...)
		wantIm := append([]float64(nil), im...)
		for i := 0; i < r; i++ {
			directDFTPerTerm(wantRe[i*c:(i+1)*c], wantIm[i*c:(i+1)*c])
		}
		colRe := make([]float64, r)
		colIm := make([]float64, r)
		for j := 0; j < c; j++ {
			for i := 0; i < r; i++ {
				colRe[i], colIm[i] = wantRe[i*c+j], wantIm[i*c+j]
			}
			directDFTPerTerm(colRe, colIm)
			for i := 0; i < r; i++ {
				wantRe[i*c+j], wantIm[i*c+j] = colRe[i], colIm[i]
			}
		}
		direct2D(re, im, r, c)
		sameBits(t, fmt.Sprintf("%dx%d re", r, c), re, wantRe)
		sameBits(t, fmt.Sprintf("%dx%d im", r, c), im, wantIm)
	}
}

func TestVariantsNearReference2D(t *testing.T) {
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
		var maxRel float64
		for i := range ref {
			scale := math.Abs(ref[i]) + 1
			if d := math.Abs(res.Output[i]-ref[i]) / scale; d > maxRel {
				maxRel = d
			}
		}
		if maxRel > 1e-10 {
			t.Errorf("%s: max relative deviation %v from direct DFT", v, maxRel)
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

func TestBaselineOrderDiffers(t *testing.T) {
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
		t.Fatal("DFT-matrix and radix-2 paths bit-identical; orders should differ")
	}
}

func TestPerformanceShape(t *testing.T) {
	// Section 6.1: the TC FFT performs WORSE than the cuFFT baseline —
	// the one workload where the baseline wins. Section 6.2: FFT suffers
	// the smallest CC degradation within Quadrant I.
	w := New()
	for _, c := range w.Cases() {
		tc, _ := w.Run(c, workload.TC)
		cc, _ := w.Run(c, workload.CC)
		bl, _ := w.Run(c, workload.Baseline)
		for _, spec := range device.All() {
			tTC := sim.Run(spec, tc.Profile).Time
			tCC := sim.Run(spec, cc.Profile).Time
			tBL := sim.Run(spec, bl.Profile).Time
			sp := tBL / tTC
			if sp >= 1.0 || sp < 0.2 {
				t.Errorf("%s/%s: TC 'speedup' %v, want below 1 (cuFFT wins)",
					c.Name, spec.Name, sp)
			}
			// On A100/H200 the gap stays moderate; on B200 the FP64 tensor
			// regression (Section 11) widens it.
			if spec.Name != "B200" && sp < 0.45 {
				t.Errorf("%s/%s: TC 'speedup' %v implausibly low", c.Name, spec.Name, sp)
			}
			if r := tTC / tCC; r < 0.42 || r > 0.98 {
				t.Errorf("%s/%s: CC/TC %v outside [0.42, 0.98]", c.Name, spec.Name, r)
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
