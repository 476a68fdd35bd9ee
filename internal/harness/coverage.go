package harness

import (
	"math"
	"sort"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/pca"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// CoveragePoint is one projected sample of a Figure 10/11 scatter.
type CoveragePoint struct {
	Label string // instance or suite name; "" for corpus background points
	X, Y  float64
}

// CoverageReport summarizes one PCA coverage analysis.
type CoverageReport struct {
	Background []CoveragePoint // the collection sweep
	Selected   []CoveragePoint // the five representatives (Fig 10) or suites (Fig 11)
	// DispersionSelected / DispersionNeighbors reproduce Section 10's
	// "0.18 vs 0.05" spread comparison: the representatives' mean pairwise
	// distance vs the typical nearest-neighbor distance of the collection.
	DispersionSelected  float64
	DispersionNeighbors float64
	// Coverage is the fraction of collection points within the median
	// selected-pair distance of some representative (the "94.6% lie close
	// to a representative" measure).
	Coverage  float64
	Explained []float64
}

// The Figure 10 corpora `cubie all` renders: the corpus size (the CLI's
// own default is 499) and the seeds of the 10a and 10b corpora.
const (
	campaignCorpus   = 199
	graphCorpusSeed  = 1
	matrixCorpusSeed = 2
)

// Figure10Graphs runs the PCA coverage analysis of the BFS graphs: a
// corpus of synthetic graphs standing in for the 499-graph SuiteSparse
// sweep, with the five Table 3 instances highlighted. It computes the
// feature matrices afresh, on a fresh harness.
func Figure10Graphs(corpusSize int, seed int64) (*CoverageReport, error) {
	return New().Figure10Graphs(corpusSize, seed)
}

// Figure10Graphs is the memoized form: the corpus and representative
// feature matrices are read or computed once per process and, with a run
// cache attached, persist across processes — a warm process skips
// synthesizing the corpus entirely.
func (h *Harness) Figure10Graphs(corpusSize int, seed int64) (*CoverageReport, error) {
	feats, err := memo[[][]float64](h, corpusKey("graph-corpus", corpusSize, seed))
	if err != nil {
		return nil, err
	}
	repFeats, err := memo[[][]float64](h, "graph-reps")
	if err != nil {
		return nil, err
	}
	var repNames []string
	for _, d := range graph.Table3() {
		repNames = append(repNames, d.Name)
	}
	return coverageReport(feats, repFeats, repNames)
}

// Figure10Matrices runs the PCA coverage analysis of the SpMV/SpGEMM
// matrices: a synthetic corpus standing in for the 2893-matrix SuiteSparse
// sweep, with the five Table 4 instances highlighted. It computes the
// feature matrices afresh, on a fresh harness.
func Figure10Matrices(corpusSize int, seed int64) (*CoverageReport, error) {
	return New().Figure10Matrices(corpusSize, seed)
}

// Figure10Matrices is the memoized form of the package-level function (see
// Harness.Figure10Graphs).
func (h *Harness) Figure10Matrices(corpusSize int, seed int64) (*CoverageReport, error) {
	feats, err := memo[[][]float64](h, corpusKey("matrix-corpus", corpusSize, seed))
	if err != nil {
		return nil, err
	}
	repFeats, err := memo[[][]float64](h, "matrix-reps")
	if err != nil {
		return nil, err
	}
	var repNames []string
	for _, d := range sparse.Table4() {
		repNames = append(repNames, d.Name)
	}
	return coverageReport(feats, repFeats, repNames)
}

func coverageReport(feats, repFeats [][]float64, repNames []string) (*CoverageReport, error) {
	fit, err := pca.Fit(feats, 2)
	if err != nil {
		return nil, err
	}
	rep := &CoverageReport{Explained: fit.Explained}
	for _, p := range fit.Projected {
		rep.Background = append(rep.Background, CoveragePoint{X: p[0], Y: p[1]})
	}
	var repPts [][]float64
	for i, f := range repFeats {
		p, err := fit.Transform(f)
		if err != nil {
			return nil, err
		}
		repPts = append(repPts, p)
		rep.Selected = append(rep.Selected, CoveragePoint{Label: repNames[i], X: p[0], Y: p[1]})
	}
	rep.DispersionSelected = pca.Dispersion(repPts)
	rep.DispersionNeighbors = nearestNeighborScale(fit.Projected)
	rep.Coverage = pca.CoverageNearest(fit.Projected, repPts, rep.DispersionSelected)
	return rep, nil
}

// nearestNeighborScale returns the mean nearest-neighbor distance of the
// projected collection — the local spread the paper compares the
// representatives' dispersion against.
func nearestNeighborScale(points [][]float64) float64 {
	n := len(points)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		best := -1.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dx := points[i][0] - points[j][0]
			dy := points[i][1] - points[j][1]
			d2 := dx*dx + dy*dy
			if best < 0 || d2 < best {
				best = d2
			}
		}
		sum += math.Sqrt(best)
	}
	return sum / float64(n)
}

// SuiteMetric is one architectural-metric sample of Figure 11: a kernel or
// application characterized by the NCU-class metrics the paper collects —
// memory-pipe efficiency, compute throughput, FMA-pipe utilization, and
// tensor-pipe utilization.
type SuiteMetric struct {
	Suite    string // "Rodinia", "SHOC", "Cubie"
	Workload string
	Vector   []float64 // [memEff, compute, fmaPipe, tensorPipe, l1Pressure]
}

// Figure11Metrics assembles the architectural-metric samples: Cubie's from
// running each workload's TC variant on the given device, Rodinia's and
// SHOC's from archived characteristic values representative of those
// suites' published (vector-only) behavior — see DESIGN.md, substitutions.
func (h *Harness) Figure11Metrics(spec device.Spec) ([]SuiteMetric, error) {
	if err := h.Execute(h.keysRepresentative()); err != nil {
		return nil, err
	}
	// Archived Rodinia/SHOC profiles: (memEff, compute, fma, tensor, l1).
	rodinia := map[string][5]float64{
		"backprop":      {0.55, 0.30, 0.45, 0, 0.35},
		"bfs":           {0.35, 0.10, 0.15, 0, 0.20},
		"hotspot":       {0.60, 0.40, 0.55, 0, 0.45},
		"kmeans":        {0.50, 0.35, 0.50, 0, 0.30},
		"lavaMD":        {0.30, 0.60, 0.70, 0, 0.55},
		"lud":           {0.45, 0.45, 0.60, 0, 0.50},
		"nw":            {0.40, 0.20, 0.25, 0, 0.40},
		"pathfinder":    {0.55, 0.25, 0.35, 0, 0.30},
		"srad":          {0.58, 0.35, 0.50, 0, 0.40},
		"streamcluster": {0.62, 0.20, 0.30, 0, 0.25},
	}
	shoc := map[string][5]float64{
		"DeviceMemory": {0.67, 0.135, 0.151, 0.0, 0.175},
		"MaxFlops":     {0.259, 0.654, 0.698, 0.0, 0.247},
		"FFT":          {0.547, 0.452, 0.54, 0.0, 0.449},
		"GEMM":         {0.475, 0.596, 0.72, 0.0, 0.521},
		"MD":           {0.403, 0.488, 0.576, 0.0, 0.449},
		"Reduction":    {0.655, 0.164, 0.216, 0.0, 0.197},
		"Scan":         {0.619, 0.179, 0.238, 0.0, 0.269},
		"Sort":         {0.511, 0.272, 0.252, 0.0, 0.413},
		"Spmv":         {0.547, 0.2, 0.288, 0.0, 0.305},
		"Triad":        {0.713, 0.15, 0.18, 0.0, 0.146},
	}
	var out []SuiteMetric
	for _, name := range sortedKeys(rodinia) {
		v := rodinia[name]
		out = append(out, SuiteMetric{Suite: "Rodinia", Workload: name, Vector: v[:]})
	}
	for _, name := range sortedKeys(shoc) {
		v := shoc[name]
		out = append(out, SuiteMetric{Suite: "SHOC", Workload: name, Vector: v[:]})
	}
	// Cubie ships every variant as a kernel of the suite; all of them are
	// profiled, mirroring the paper's "complete kernel execution" sweep.
	for _, w := range h.Suite.Workloads() {
		for _, v := range w.Variants() {
			res, err := h.run(w, w.Representative(), v)
			if err != nil {
				return nil, err
			}
			r := sim.Run(spec, res.Profile)
			out = append(out, SuiteMetric{
				Suite:    "Cubie",
				Workload: w.Name() + "-" + string(v),
				Vector: []float64{
					r.UtilDRAM,
					r.UtilTensor + r.UtilVector + r.UtilBit,
					r.UtilVector,
					r.UtilTensor + r.UtilBit,
					r.UtilL1,
				},
			})
		}
	}
	return out, nil
}

func sortedKeys(m map[string][5]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Figure11 projects the suite metrics onto two principal components and
// reports each suite's dispersion — Cubie spans the widest area
// (Observation 9).
func (h *Harness) Figure11(spec device.Spec) ([]CoveragePoint, map[string]float64, error) {
	metrics, err := h.Figure11Metrics(spec)
	if err != nil {
		return nil, nil, err
	}
	var data [][]float64
	for _, m := range metrics {
		data = append(data, m.Vector)
	}
	fit, err := pca.Fit(data, 2)
	if err != nil {
		return nil, nil, err
	}
	var pts []CoveragePoint
	bySuite := map[string][][]float64{}
	for i, m := range metrics {
		p := fit.Projected[i]
		pts = append(pts, CoveragePoint{Label: m.Suite + "/" + m.Workload, X: p[0], Y: p[1]})
		bySuite[m.Suite] = append(bySuite[m.Suite], p)
	}
	disp := map[string]float64{}
	for s, ps := range bySuite {
		disp[s] = pca.Dispersion(ps)
	}
	return pts, disp, nil
}
