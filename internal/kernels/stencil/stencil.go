// Package stencil implements the Stencil workload following LoRaStencil
// (Zhang et al., SC '24) at FP64: star stencils are decomposed into 1D band
// passes, each executed as small matrix products against a constant band
// matrix held in constant memory — Quadrant I: full input and output, with
// the B operand loaded once and reused (Figure 2).
//
// Cases are star2d1r (5-point) on 1K², 5K², and 10K² grids and star3d1r
// (7-point) on 512³ and 1K³ grids (Table 2).
package stencil

import (
	"fmt"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// computeBudget caps the number of grid points a case executes for real.
const computeBudget = 1 << 21

// Star weights for the radius-1 star stencils. Deliberately non-dyadic so
// every multiply rounds (dyadic weights would make all products exact and
// hide the accumulation-order effects Table 6 studies).
const (
	wCenter = 0.52
	wSide   = 0.12 // each of the 4 (2D) or 6 (3D) neighbors
)

// Workload is the Stencil kernel.
type Workload struct{}

// New returns the Stencil workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "Stencil" }

// Quadrant implements workload.Workload (Figure 2, Quadrant I).
func (*Workload) Quadrant() int { return 1 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "Structured grids" }

// Cases returns the five Table 2 grids. Dims is [nx, ny] for star2d1r and
// [nx, ny, nz] for star3d1r.
func (*Workload) Cases() []workload.Case {
	return []workload.Case{
		{Name: "star2d1r-1Kx1K", Dims: []int{1024, 1024}},
		{Name: "star2d1r-5Kx5K", Dims: []int{5120, 5120}},
		{Name: "star2d1r-10Kx10K", Dims: []int{10240, 10240}},
		{Name: "star3d1r-512", Dims: []int{512, 512, 512}},
		{Name: "star3d1r-1K", Dims: []int{1024, 1024, 1024}},
	}
}

// Variants implements workload.Workload. CC-E ≡ CC for Quadrant I.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC}
}

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 5000 }

func points(c workload.Case) (float64, error) {
	if len(c.Dims) != 2 && len(c.Dims) != 3 {
		return 0, fmt.Errorf("stencil: case %q needs 2 or 3 dims", c.Name)
	}
	p := 1.0
	for _, d := range c.Dims {
		p *= float64(d)
	}
	return p, nil
}

func input2D(nx, ny int) *tensor.Matrix {
	g := lcg.New(int64(nx)*13 + int64(ny))
	m := tensor.NewMatrix(nx, ny)
	g.Fill(m.Data)
	return m
}

// Profile implements workload.Workload: the closed-form profile, with no
// sweep executed.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	pts, err := points(c)
	if err != nil {
		return nil, err
	}
	threeD := len(c.Dims) == 3
	flopsPerPoint := 10.0 // 5-point star: 5 multiply-adds
	if threeD {
		flopsPerPoint = 14 // 7-point star
	}
	res := &workload.Result{
		Work:       pts * flopsPerPoint,
		MetricName: "GFLOPS",
	}
	switch v {
	case workload.TC:
		res.Profile = profileFor(pts, threeD, workload.TC)
		res.InputUtil, res.OutputUtil = 1, 1
	case workload.CC, workload.CCE:
		res.Profile = profileFor(pts, threeD, workload.CC)
		res.InputUtil, res.OutputUtil = 1, 1
	case workload.Baseline:
		res.Profile = profileFor(pts, threeD, workload.Baseline)
	default:
		return nil, fmt.Errorf("stencil: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the swept grid for a
// 2D case that fits the compute budget.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	pts, _ := points(c)
	if len(c.Dims) == 2 && pts <= computeBudget {
		u := input2D(c.Dims[0], c.Dims[1])
		switch v {
		case workload.TC, workload.CC, workload.CCE:
			res.Output = sweepMMA(u).Data
		case workload.Baseline:
			res.Output = sweepDirect(u).Data
		}
	}
	return res, nil
}

// Reference implements workload.Workload: a direct 5-point sweep with
// separate multiply and add.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	pts, err := points(c)
	if err != nil {
		return nil, err
	}
	if len(c.Dims) != 2 || pts > computeBudget {
		return nil, fmt.Errorf("stencil: case %q exceeds the compute budget", c.Name)
	}
	u := input2D(c.Dims[0], c.Dims[1])
	out := tensor.NewMatrix(u.Rows, u.Cols)
	at := func(i, j int) float64 {
		if i < 0 || i >= u.Rows || j < 0 || j >= u.Cols {
			return 0
		}
		return u.At(i, j)
	}
	par.ForTiles(u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < u.Cols; j++ {
				v := wCenter * at(i, j)
				v += wSide * at(i-1, j)
				v += wSide * at(i+1, j)
				v += wSide * at(i, j-1)
				v += wSide * at(i, j+1)
				out.Set(i, j, v)
			}
		}
	})
	return out.Data, nil
}

// bandMatrixB builds the 12×8 horizontal band operand: column j of the
// output pulls inputs j-1, j, j+1 (offset by the one-column halo), weighted
// (side, center, side). centerWeight lets the vertical pass zero the center
// to avoid double-counting it.
func bandMatrixB(centerWeight float64) []float64 {
	b := make([]float64, 12*8)
	for j := 0; j < 8; j++ {
		b[j*8+j] = wSide // input col j-1 (halo offset)
		b[(j+1)*8+j] = centerWeight
		b[(j+2)*8+j] = wSide
	}
	return b
}

// bandMatrixA is the 8×12 vertical band operand: row i of the output pulls
// input rows i-1, i, i+1 with weights (side, centerWeight, side).
func bandMatrixA(centerWeight float64) []float64 {
	a := make([]float64, 8*12)
	for i := 0; i < 8; i++ {
		a[i*12+i] = wSide
		a[i*12+i+1] = centerWeight
		a[i*12+i+2] = wSide
	}
	return a
}

// sweepScratch pools the per-sweep staging of sweepMMA and the Sweep3DMMA
// band passes: one haloed line/operand panel (96), the 8×8 accumulator, and
// a second 3-tile operand panel (96).
var sweepScratch = par.NewScratch(96 + 64 + 96)

// sweepMMA executes one star2d1r sweep in the LoRaStencil style: per 8×8
// tile, a horizontal band product X_ext(8×12)·B(12×8) plus a vertical band
// product A(8×12)·X_ext(12×8) with a zeroed center weight, each run as one
// fused 3-tile k-sweep on the panel engine. The constant 12×8 band matrix is
// already a 3-tile B panel (row-major 4×8 tiles), the constant 8×12 vertical
// A operand is packed once per sweep, and the haloed grid tiles pack
// straight from u via PackAPanel/PackBPanel — no per-k-step segment copies.
// The per-element FMA chains keep the ascending-k order of the old loops, so
// results are bit-identical to the tile loop. Output tiles are
// disjoint, so the tile-row grid runs through par.ForTiles.
func sweepMMA(u *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(u.Rows, u.Cols)
	bH := bandMatrixB(wCenter) // 12×8 row-major ≡ 3-tile B panel
	aVPanel := make([]float64, 3*mmu.M*mmu.K)
	mmu.PackA(aVPanel, bandMatrixA(0), 12, 3)
	rowTiles := (u.Rows + 7) / 8
	par.ForTiles(rowTiles, func(lo, hi int) {
		buf := sweepScratch.Get()
		defer sweepScratch.Put(buf)
		aPanelH := buf[0:96]    // horizontal pass: haloed tile as 3 A tiles
		acc := buf[96:160]      // accumulates both passes
		bPanelV := buf[160:256] // vertical pass: haloed tile as 3 B tiles
		for ti := lo; ti < hi; ti++ {
			i0 := ti * 8
			for j0 := 0; j0 < u.Cols; j0 += 8 {
				u.PackAPanel(aPanelH, i0, j0-1, 3)
				u.PackBPanel(bPanelV, i0-1, j0, 3)
				for i := range acc {
					acc[i] = 0
				}
				// Horizontal: acc += X_ext · B, fused 3-tile k-sweep.
				mmu.DMMAPanel(acc, aPanelH, bH, 3)
				// Vertical: acc += A · X_ext, center weight zero.
				mmu.DMMAPanel(acc, aVPanel, bPanelV, 3)
				out.SetTile(acc, i0, j0, 8, 8)
			}
		}
	})
	return out
}

// sweepDirect is the DRStencil-class vector baseline: a direct 5-point
// gather per point with FMA contraction in fixed neighbor order, rows
// executed through par.ForTiles.
func sweepDirect(u *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(u.Rows, u.Cols)
	at := func(i, j int) float64 {
		if i < 0 || i >= u.Rows || j < 0 || j >= u.Cols {
			return 0
		}
		return u.At(i, j)
	}
	par.ForTiles(u.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < u.Cols; j++ {
				v := mmu.FMA(wCenter, at(i, j), 0)
				v = mmu.FMA(wSide, at(i-1, j), v)
				v = mmu.FMA(wSide, at(i+1, j), v)
				v = mmu.FMA(wSide, at(i, j-1), v)
				v = mmu.FMA(wSide, at(i, j+1), v)
				out.Set(i, j, v)
			}
		}
	})
	return out
}

// Profiles. Per point, the TC version issues 6 MMAs per 8×8 tile in 2D
// (48 FLOPs/point) and 9 per tile in 3D (72 FLOPs/point); the band operands
// come from constant memory.

func profileFor(pts float64, threeD bool, v workload.Variant) sim.Profile {
	mmaFLOPs := 48.0
	passes := 2.0
	if threeD {
		mmaFLOPs = 72
		passes = 3
	}
	switch v {
	case workload.TC:
		return sim.Profile{
			TensorFLOPs: pts * mmaFLOPs,
			DRAMBytes:   2 * pts * sim.BytesF64, // streamed read + write
			ConstBytes:  pts * passes,           // band matrices, broadcast
			L1Bytes:     pts * 24,               // halo tiles staged in shared memory
			Launches:    1,
			Overlap:     0.90,
			Eff: sim.Efficiency{
				Tensor: 0.55,
				DRAM:   0.92, // block layout streams the grid
				L1:     0.9,
			},
		}
	case workload.CC, workload.CCE:
		return sim.Profile{
			VectorFLOPs: pts * mmaFLOPs,
			DRAMBytes:   2 * pts * sim.BytesF64,
			L1Bytes:     pts * 48, // band operands now staged per FMA chain
			Launches:    1,
			Overlap:     0.35,
			Eff: sim.Efficiency{
				Vector: 0.35,
				// Scalar loads lose the MMA's cooperative coalescing.
				DRAM: 0.68,
				L1:   0.9,
			},
		}
	default: // Baseline: DRStencil-class direct gather
		flops := 10.0
		if threeD {
			flops = 14
		}
		return sim.Profile{
			VectorFLOPs: pts * flops,
			// Imperfect halo reuse: ~30% extra neighbor traffic.
			DRAMBytes: 2.6 * pts * sim.BytesF64,
			L1Bytes:   pts * 5 * sim.BytesF64,
			Launches:  1,
			Overlap:   0.70,
			Eff: sim.Efficiency{
				Vector: sim.EffModerate,
				DRAM:   sim.EffModerate,
				L1:     0.8,
			},
		}
	}
}
