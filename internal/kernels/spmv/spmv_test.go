package spmv

import (
	"math"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "SpMV" || w.Quadrant() != 4 {
		t.Fatal("bad metadata")
	}
	if len(w.Cases()) != 5 {
		t.Fatal("want 5 Table 4 cases")
	}
	if w.Repeats() != 1_000_000 {
		t.Fatal("Figure 7 repeat count wrong")
	}
}

func TestAllVariantsNearReference(t *testing.T) {
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
			t.Fatalf("%s: length %d want %d", v, len(res.Output), len(ref))
		}
		var maxErr float64
		for i := range ref {
			if d := math.Abs(res.Output[i] - ref[i]); d > maxErr {
				maxErr = d
			}
		}
		if maxErr > 1e-10 {
			t.Errorf("%s: max error %v vs serial reference", v, maxErr)
		}
	}
}

func TestTCIdenticalToCC(t *testing.T) {
	w := New()
	c := w.Representative()
	tc, _ := w.Run(c, workload.TC)
	cc, _ := w.Run(c, workload.CC)
	for i := range tc.Output {
		if tc.Output[i] != cc.Output[i] {
			t.Fatalf("TC and CC differ at %d", i)
		}
	}
}

func TestCCEDeviatesFromTC(t *testing.T) {
	// Section 8: CC-E's reordered accumulation deviates from TC/CC.
	w := New()
	c := w.Representative()
	tc, _ := w.Run(c, workload.TC)
	cce, _ := w.Run(c, workload.CCE)
	same := true
	for i := range tc.Output {
		if tc.Output[i] != cce.Output[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("CC-E output bit-identical to TC; orders should differ")
	}
}

func TestUtilizationPartialOutput(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Representative(), workload.TC)
	if tc.OutputUtil != 0.125 {
		t.Errorf("output utilization %v, want 1/8 (diagonal)", tc.OutputUtil)
	}
	if tc.InputUtil <= 0.5 || tc.InputUtil > 1 {
		t.Errorf("DASP input utilization %v implausible", tc.InputUtil)
	}
}

func TestPerformanceShape(t *testing.T) {
	// Paper targets: TC/baseline 1.7–2.8×; CC retains 60–80% of TC;
	// CC-E outperforms TC by 1.0–1.2× (the SpMV exception, Observation 5).
	w := New()
	speedups := map[string][]float64{}
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
			sp := tBL / tTC
			speedups[spec.Name] = append(speedups[spec.Name], sp)
			// Per-case: TC always wins; small matrices on the 8 TB/s B200
			// compress toward 1 as launch latency dominates.
			if sp < 1.15 || sp > 3.5 {
				t.Errorf("%s/%s: TC speedup over baseline %v outside [1.15, 3.5]",
					c.Name, spec.Name, sp)
			}
			if r := tTC / tCC; r < 0.5 || r > 0.9 {
				t.Errorf("%s/%s: CC/TC %v outside [0.5, 0.9]", c.Name, spec.Name, r)
			}
			if r := tTC / tCCE; r < 0.95 || r > 1.35 {
				t.Errorf("%s/%s: CC-E speedup over TC %v outside [0.95, 1.35]",
					c.Name, spec.Name, r)
			}
		}
	}
	// Figure 4 reports the case-averaged speedup; the paper's SpMV range is
	// 1.7–2.8× across GPUs.
	for dev, sps := range speedups {
		var sum float64
		for _, s := range sps {
			sum += s
		}
		avg := sum / float64(len(sps))
		if avg < 1.4 || avg > 3.0 {
			t.Errorf("%s: average TC speedup %v outside [1.4, 3.0]", dev, avg)
		}
	}
}

func TestMemoryBound(t *testing.T) {
	w := New()
	tc, _ := w.Run(w.Cases()[3], workload.TC) // conf5: largest regular
	r := sim.Run(device.H200(), tc.Profile)
	if r.Bottleneck != "DRAM" {
		t.Errorf("SpMV TC bottleneck = %s, want DRAM", r.Bottleneck)
	}
	if ai := tc.Profile.ArithmeticIntensity(); ai > 3 {
		t.Errorf("SpMV arithmetic intensity %v, Figure 9 places it below 3", ai)
	}
}

func TestCacheReuse(t *testing.T) {
	w := New()
	c := w.Representative()
	if _, err := w.Run(c, workload.TC); err != nil {
		t.Fatal(err)
	}
	d, err := w.data(c)
	if err != nil {
		t.Fatal(err)
	}
	l := w.dasp(c, d)
	if _, err := w.Run(c, workload.CC); err != nil {
		t.Fatal(err)
	}
	if d2, _ := w.data(c); d2 != d {
		t.Fatal("second run should reuse the case's input")
	}
	if w.dasp(c, d) != l {
		t.Fatal("second run should reuse the case's layout")
	}
	if s := w.cases.State(w.Cases()[1].Dataset); s != par.Absent {
		t.Fatalf("a case no run asked for has state %v, want Absent", s)
	}
}

func TestUnknownVariantAndCase(t *testing.T) {
	w := New()
	if _, err := w.Run(w.Representative(), "nope"); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := w.Run(workload.Case{Name: "zzz", Dataset: "zzz"}, workload.TC); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestLayoutBuiltOnFirstRun pins the case's one lazy layout build, which
// ToDASP counts on cubie_prestage_slabs_total: profiles of every case and
// variant build no layout, the first TC, CC or CC-E Run of a case builds
// it once, a repeat builds nothing, Baseline never builds it, and
// concurrent Runs of one case build one layout.
func TestLayoutBuiltOnFirstRun(t *testing.T) {
	slabs := metrics.NewCounter("cubie_prestage_slabs_total", "")
	built := func(f func()) uint64 {
		before := slabs.Value()
		f()
		return slabs.Value() - before
	}
	run := func(w *Workload, v workload.Variant) func() {
		return func() {
			if _, err := w.Run(w.Representative(), v); err != nil {
				t.Error(err)
			}
		}
	}

	w := New()
	if n := built(func() {
		for _, c := range w.Cases() {
			for _, v := range w.Variants() {
				if _, err := w.Profile(c, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}); n != 0 {
		t.Fatalf("profiles of every case and variant built %d layouts, want 0", n)
	}
	if n := built(run(w, workload.Baseline)); n != 0 {
		t.Fatalf("a Baseline run built %d layouts, want 0", n)
	}
	for _, v := range []workload.Variant{workload.TC, workload.CC, workload.CCE} {
		w := New()
		if n := built(run(w, v)); n != 1 {
			t.Fatalf("the first %s run built %d layouts, want 1", v, n)
		}
		for _, again := range w.Variants() {
			if n := built(run(w, again)); n != 0 {
				t.Fatalf("a %s run after a %s run built %d layouts, want 0", again, v, n)
			}
		}
	}

	w = New()
	if n := built(func() {
		var wg sync.WaitGroup
		for _, v := range []workload.Variant{workload.TC, workload.CC, workload.CCE, workload.TC} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(w, v)()
			}()
		}
		wg.Wait()
	}); n != 1 {
		t.Fatalf("four concurrent runs of one case built %d layouts, want 1", n)
	}
}

// TestRunOpensDistinctInputSpans: a cold TC run of the representative
// case builds its input and its DASP layout, each in an input span of its
// own name, beside at most one for the Table 4 matrix (none when another
// test left it cached).
func TestRunOpensDistinctInputSpans(t *testing.T) {
	w := New()
	c := w.Representative()
	trace.StartHost()
	_, err := w.Run(c, workload.TC)
	rec := trace.StopHost()
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, e := range rec.Events() {
		if e.Category == "input" && e.Name != "synthesize sparse|"+c.Dataset {
			spans[e.Name]++
		}
	}
	data, dasp := "layout SpMV|"+c.Name, "layout SpMV|"+c.Name+"/dasp"
	if len(spans) != 2 || spans[data] != 1 || spans[dasp] != 1 {
		t.Fatalf("input spans %v, want one %q and one %q", spans, data, dasp)
	}
}
