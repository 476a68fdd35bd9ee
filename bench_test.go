// Top-level benchmark harness: one benchmark per table and figure of the
// paper. Each benchmark regenerates its experiment's data through the
// harness and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The shared harness caches workload runs
// across benchmarks.
package repro

import (
	"math"
	"sync"
	"testing"

	"repro/cubie"
	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/workload"
)

var (
	benchOnce sync.Once
	benchH    *harness.Harness
)

func sharedHarness() *harness.Harness {
	benchOnce.Do(func() { benchH = harness.New() })
	return benchH
}

// BenchmarkTable2SuiteConstruction measures suite instantiation (Table 2).
func BenchmarkTable2SuiteConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := cubie.NewSuite()
		if len(s.Workloads()) != 10 {
			b.Fatal("suite incomplete")
		}
	}
}

// BenchmarkFigure3 regenerates the absolute-performance grid, reporting the
// grid size and the mean TC throughput per device.
func BenchmarkFigure3(b *testing.B) {
	h := sharedHarness()
	var cells []harness.PerfCell
	var err error
	for i := 0; i < b.N; i++ {
		cells, err = h.Figure3(device.All())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cells)), "cells")
	for _, dev := range device.All() {
		var sum float64
		var n int
		for _, c := range cells {
			if c.Variant == workload.TC && c.Device == dev.Name {
				sum += c.Throughput
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "meanTCthroughput-"+dev.Name)
	}
}

func benchSpeedup(b *testing.B, f func([]device.Spec) ([]harness.SpeedupRow, error)) {
	var rows []harness.SpeedupRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = f(device.All())
		if err != nil {
			b.Fatal(err)
		}
	}
	byQ := map[int][]float64{}
	for _, r := range rows {
		byQ[r.Quadrant] = append(byQ[r.Quadrant], r.Speedup)
	}
	for q := 1; q <= 4; q++ {
		if len(byQ[q]) == 0 {
			continue
		}
		var logSum float64
		for _, s := range byQ[q] {
			logSum += math.Log(s)
		}
		b.ReportMetric(math.Exp(logSum/float64(len(byQ[q]))), "geomeanQ"+string(rune('0'+q)))
	}
}

// BenchmarkFigure4 regenerates the TC-vs-baseline speedups.
func BenchmarkFigure4(b *testing.B) { benchSpeedup(b, sharedHarness().Figure4) }

// BenchmarkFigure5 regenerates the CC-vs-TC speedups.
func BenchmarkFigure5(b *testing.B) { benchSpeedup(b, sharedHarness().Figure5) }

// BenchmarkFigure6 regenerates the CC-E-vs-TC speedups.
func BenchmarkFigure6(b *testing.B) { benchSpeedup(b, sharedHarness().Figure6) }

// BenchmarkFigure7 regenerates the EDP comparison on H200, reporting the
// per-quadrant geomean TC/baseline EDP ratios.
func BenchmarkFigure7(b *testing.B) {
	h := sharedHarness()
	var geo map[int]float64
	var err error
	for i := 0; i < b.N; i++ {
		_, geo, err = h.Figure7(device.H200())
		if err != nil {
			b.Fatal(err)
		}
	}
	for q := 1; q <= 4; q++ {
		b.ReportMetric((1-geo[q])*100, "EDPreduction%Q"+string(rune('0'+q)))
	}
}

// BenchmarkFigure8 regenerates the power traces on H200, reporting the peak
// TC power across the suite.
func BenchmarkFigure8(b *testing.B) {
	h := sharedHarness()
	var peak float64
	for i := 0; i < b.N; i++ {
		traces, err := h.Figure8(device.H200())
		if err != nil {
			b.Fatal(err)
		}
		peak = 0
		for _, t := range traces {
			if t.Variant == string(workload.TC) && t.PeakPower() > peak {
				peak = t.PeakPower()
			}
		}
	}
	b.ReportMetric(peak, "peakTCwatts")
}

// BenchmarkTable6 regenerates the FP64 accuracy table, reporting the worst
// TC error and verifying TC ≡ CC.
func BenchmarkTable6(b *testing.B) {
	h := sharedHarness()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := h.Table6()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if !r.TCEqualsCC {
				b.Fatalf("%s: TC and CC diverged", r.Workload)
			}
			if r.TCCC.Max > worst {
				worst = r.TCCC.Max
			}
		}
	}
	// Benchmark metrics print with fixed precision, so report the error's
	// negative log10 (e.g. 12.9 means 1.3e-13).
	b.ReportMetric(-math.Log10(worst), "worstTCerrNegLog10")
}

// BenchmarkFigure9 regenerates the cache-aware roofline on H200.
func BenchmarkFigure9(b *testing.B) {
	h := sharedHarness()
	var n int
	for i := 0; i < b.N; i++ {
		_, pts, err := h.Figure9(device.H200())
		if err != nil {
			b.Fatal(err)
		}
		n = len(pts)
	}
	b.ReportMetric(float64(n), "points")
}

// BenchmarkFigure10 regenerates the dataset-coverage PCA at reduced corpus
// size, reporting the representative-dispersion ratios.
func BenchmarkFigure10(b *testing.B) {
	var g, m *harness.CoverageReport
	var err error
	for i := 0; i < b.N; i++ {
		g, err = harness.Figure10Graphs(60, 1)
		if err != nil {
			b.Fatal(err)
		}
		m, err = harness.Figure10Matrices(60, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(g.DispersionSelected/g.DispersionNeighbors, "graphSpreadRatio")
	b.ReportMetric(m.DispersionSelected/m.DispersionNeighbors, "matrixSpreadRatio")
	b.ReportMetric(g.Coverage*100, "graphCoverage%")
}

// BenchmarkFigure11 regenerates the suite-comparison PCA, reporting each
// suite's dispersion (Observation 9: Cubie widest).
func BenchmarkFigure11(b *testing.B) {
	h := sharedHarness()
	var disp map[string]float64
	var err error
	for i := 0; i < b.N; i++ {
		_, disp, err = h.Figure11(device.H200())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(disp["Cubie"], "dispCubie")
	b.ReportMetric(disp["Rodinia"], "dispRodinia")
	b.ReportMetric(disp["SHOC"], "dispSHOC")
}

// BenchmarkFigure12 regenerates the peak-throughput series.
func BenchmarkFigure12(b *testing.B) {
	var peaks []device.PeakEntry
	for i := 0; i < b.N; i++ {
		peaks = device.Figure12Peaks()
	}
	for _, p := range peaks {
		if p.Precision == "FP64" && p.Unit == "TensorCore" {
			b.ReportMetric(p.TFLOPS, "fp64tc-"+p.GPU)
		}
	}
}

// BenchmarkTable7 regenerates the dwarf-coverage comparison.
func BenchmarkTable7(b *testing.B) {
	var covered int
	for i := 0; i < b.N; i++ {
		covered = cubie.NewSuite().DwarfsCovered()
	}
	b.ReportMetric(float64(covered), "dwarfs")
}

// BenchmarkAblations runs the design-choice ablation studies, reporting the
// headline ratios.
func BenchmarkAblations(b *testing.B) {
	h := sharedHarness()
	var overlapGeo, daspGeo float64
	for i := 0; i < b.N; i++ {
		ov, err := h.AblateOverlap(device.H200())
		if err != nil {
			b.Fatal(err)
		}
		var logSum float64
		for _, r := range ov {
			logSum += math.Log(r.Ratio())
		}
		overlapGeo = math.Exp(logSum / float64(len(ov)))
		dp, err := harness.AblateDASPPadding()
		if err != nil {
			b.Fatal(err)
		}
		logSum = 0
		for _, r := range dp {
			logSum += math.Log(r.Ratio())
		}
		daspGeo = math.Exp(logSum / float64(len(dp)))
	}
	b.ReportMetric(overlapGeo, "overlapGeoRatio")
	b.ReportMetric(daspGeo, "daspRedundancy")
}
