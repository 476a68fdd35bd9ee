// Package gemm implements the dense GEMM workload of the Cubie suite: the
// cudaSample dmmaTensorCoreGEMM routine (64×64 thread-block tiles over the
// FP64 wmma m8n8k4 instruction), its CUDA-core MMA replacement, and the
// cudaSample matrixMul-class vector baseline. Quadrant I: full input, full
// output, inputs repeatedly loaded into one accumulated result (Figure 2).
package gemm

import (
	"fmt"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// computeBudget caps the number of multiply-accumulates a case executes for
// real; larger cases are profiled in closed form and report no Output.
const computeBudget = 1 << 25

// blockTile is the thread-block tile edge of the cudaSample TC kernel.
const blockTile = 64

// Workload is the GEMM kernel.
type Workload struct{}

// New returns the GEMM workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "GEMM" }

// Quadrant implements workload.Workload (Figure 2, Quadrant I).
func (*Workload) Quadrant() int { return 1 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "Dense linear algebra" }

// Cases returns the five M×N×K test cases of Table 2.
func (*Workload) Cases() []workload.Case {
	mk := func(n int, name string) workload.Case {
		return workload.Case{Name: name, Dims: []int{n, n, n}}
	}
	return []workload.Case{
		mk(256, "256x256x256"),
		mk(512, "512x512x512"),
		mk(1024, "1Kx1Kx1K"),
		mk(2048, "2Kx2Kx2K"),
		mk(4096, "4Kx4Kx4K"),
	}
}

// Variants implements workload.Workload. CC-E ≡ CC for Quadrant I.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC}
}

// Representative implements workload.Workload: the mid case is used for the
// single-case power and accuracy experiments.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 500 }

func dims(c workload.Case) (m, n, k int, err error) {
	if len(c.Dims) != 3 {
		return 0, 0, 0, fmt.Errorf("gemm: case %q needs 3 dims", c.Name)
	}
	return c.Dims[0], c.Dims[1], c.Dims[2], nil
}

// inputs deterministically generates the A and B operands for a case.
func inputs(m, n, k int) (*tensor.Matrix, *tensor.Matrix) {
	g := lcg.New(int64(m)*1_000_003 + int64(k))
	a := tensor.NewMatrix(m, k)
	b := tensor.NewMatrix(k, n)
	g.Fill(a.Data)
	g.Fill(b.Data)
	return a, b
}

// Profile implements workload.Workload: the closed-form profile, with no
// arithmetic executed.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	m, n, k, err := dims(c)
	if err != nil {
		return nil, err
	}
	res := &workload.Result{
		Work:       2 * float64(m) * float64(n) * float64(k),
		MetricName: "GFLOPS",
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(m, n, k)
		res.InputUtil, res.OutputUtil = 1, 1
	case workload.CC, workload.CCE:
		res.Profile = ccProfile(m, n, k)
		res.InputUtil, res.OutputUtil = 1, 1
	case workload.Baseline:
		res.Profile = baselineProfile(m, n, k)
	default:
		return nil, fmt.Errorf("gemm: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the variant's output
// when the case fits the compute budget.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	m, n, k, _ := dims(c)
	if float64(m)*float64(n)*float64(k) <= computeBudget {
		a, b := inputs(m, n, k)
		var out *tensor.Matrix
		switch v {
		case workload.TC, workload.CC, workload.CCE:
			// CC replays the TC algorithm exactly (same FMA chains on the
			// vector unit), so both variants share this compute path and
			// produce bit-identical results (Table 6).
			out = multiplyMMA(a, b)
		case workload.Baseline:
			out = multiplyBaseline(a, b)
		}
		res.Output = out.Data
	}
	return res, nil
}

// Reference implements workload.Workload: a naive CPU serial triple loop
// with separate multiply and add (no FMA contraction), ascending k.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	m, n, k, err := dims(c)
	if err != nil {
		return nil, err
	}
	if float64(m)*float64(n)*float64(k) > computeBudget {
		return nil, fmt.Errorf("gemm: case %q exceeds the compute budget", c.Name)
	}
	a, b := inputs(m, n, k)
	out := tensor.NewMatrix(m, n)
	par.ForTiles(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				for kk := 0; kk < k; kk++ {
					acc += a.At(i, kk) * b.At(kk, j)
				}
				out.Set(i, j, acc)
			}
		}
	})
	return out.Data, nil
}

// mmaAccScratch pools the per-sweep even/odd C accumulators of multiplyMMA,
// and panelScratch its packed A and B operands.
var (
	mmaAccScratch = par.NewScratch(2 * mmu.M * mmu.N)
	panelScratch  = par.NewSizedScratch()
)

// multiplyMMA executes the tiled tensor-core GEMM: 64×64 block tiles, each
// built from 8×8 MMA accumulator fragments swept over k in steps of 4. Like
// the software-pipelined cudaSample kernel, it keeps two accumulators (even
// and odd k-tiles) per fragment and sums them at the end — this double
// buffering is what makes the MMA result differ in rounding from the
// single-accumulator baseline (Table 6: GEMM TC error exceeds baseline).
//
// The k-sweep runs on the panel engine: both whole operands are packed once
// per call into pooled scratch (not once per row tile, which would re-pack
// B m/8 times), and mmu.DMMAPanelPair executes the whole sweep with both
// accumulators register-resident. Per element the accumulation order is
// the tile loop's, so the result is bit-identical to it.
//
// The output-tile grid is executed through par.ForTiles: each 8×8 output
// tile's FMA chains run whole on one worker in the fixed k order, so the
// result is bit-identical for every worker count (the tile-independence
// property the paper's MMA semantics guarantee). Workers share the packed
// slabs read-only.
func multiplyMMA(a, b *tensor.Matrix) *tensor.Matrix {
	m, k, n := a.Rows, a.Cols, b.Cols
	out := tensor.NewMatrix(m, n)
	rowTiles := (m + mmu.M - 1) / mmu.M
	kTiles := (k + mmu.K - 1) / mmu.K
	aStride := kTiles * mmu.M * mmu.K
	bStride := kTiles * mmu.K * mmu.N
	aAll := panelScratch.Get(rowTiles * aStride)
	bAll := panelScratch.Get((n + mmu.N - 1) / mmu.N * bStride)
	defer panelScratch.Put(aAll)
	defer panelScratch.Put(bAll)
	a.PackAPanels(aAll, kTiles)
	b.PackBPanels(bAll, kTiles)
	par.ForTiles(rowTiles, func(lo, hi int) {
		acc := mmaAccScratch.Get()
		defer mmaAccScratch.Put(acc)
		cEven := acc[0 : mmu.M*mmu.N]
		cOdd := acc[mmu.M*mmu.N:]
		for ti := lo; ti < hi; ti++ {
			i0 := ti * mmu.M
			aPanel := aAll[ti*aStride : (ti+1)*aStride]
			for j0, tj := 0, 0; j0 < n; j0, tj = j0+mmu.N, tj+1 {
				bPanel := bAll[tj*bStride : (tj+1)*bStride]
				for i := range cEven {
					cEven[i], cOdd[i] = 0, 0
				}
				mmu.DMMAPanelPair(cEven, cOdd, aPanel, bPanel, kTiles)
				// Fused epilogue: one add per element straight into the
				// output tile — no separate summing pass or staging buffer.
				out.SetTileSum(cEven, cOdd, i0, j0, mmu.M, mmu.N)
			}
		}
	})
	return out
}

// multiplyBaseline is the cudaSample matrixMul-class vector GEMM: one FMA
// chain per output element over the full k extent, parallelized over output
// rows (each element's chain stays on one worker).
func multiplyBaseline(a, b *tensor.Matrix) *tensor.Matrix {
	m, k, n := a.Rows, a.Cols, b.Cols
	out := tensor.NewMatrix(m, n)
	par.ForTiles(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				var acc float64
				for kk := 0; kk < k; kk++ {
					acc = mmu.FMA(a.At(i, kk), b.At(kk, j), acc)
				}
				out.Set(i, j, acc)
			}
		}
	})
	return out
}

// Closed-form execution profiles. Byte counts model the tiling each variant
// uses; efficiency factors are calibrated (see sim/calibration.go).

func sharedTraffic(m, n, k, reuse int) (dram, l1 float64) {
	fm, fn, fk := float64(m), float64(n), float64(k)
	rdA := fm * fk * float64((n+reuse-1)/reuse) * sim.BytesF64
	rdB := fk * fn * float64((m+reuse-1)/reuse) * sim.BytesF64
	wrC := fm * fn * sim.BytesF64
	// Each 8×8×4 MMA (or its scalar replacement) pulls the 32-element A and
	// B fragments from shared memory: 512 B per 512 FLOPs.
	l1 = 2 * fm * fn * fk
	return rdA + rdB + wrC, l1
}

func tcProfile(m, n, k int) sim.Profile {
	dram, l1 := sharedTraffic(m, n, k, 8*blockTile)
	return sim.Profile{
		TensorFLOPs: 2 * float64(m) * float64(n) * float64(k),
		DRAMBytes:   dram,
		L1Bytes:     l1,
		Launches:    1,
		Overlap:     0.90,
		Eff: sim.Efficiency{
			// The paper notes Cubie's GEMM omits cuBLAS/CUTLASS-grade
			// optimizations and does not reach tensor peak (Section 9).
			Tensor: 0.62,
			DRAM:   sim.EffLibrary,
			L1:     1.0,
		},
	}
}

func ccProfile(m, n, k int) sim.Profile {
	dram, l1 := sharedTraffic(m, n, k, 8*blockTile)
	return sim.Profile{
		VectorFLOPs: 2 * float64(m) * float64(n) * float64(k),
		DRAMBytes:   dram,
		L1Bytes:     l1,
		Launches:    1,
		// Scalar MMA emulation issues 16 dependent FMAs per lane and loses
		// the cooperative-load overlap of the tensor path.
		Overlap: 0.60,
		Eff: sim.Efficiency{
			Vector: sim.EffModerate,
			DRAM:   sim.EffLibrary,
			L1:     0.9,
		},
	}
}

func baselineProfile(m, n, k int) sim.Profile {
	dram, l1 := sharedTraffic(m, n, k, 32) // 32×32 shared tiles
	return sim.Profile{
		VectorFLOPs: 2 * float64(m) * float64(n) * float64(k),
		DRAMBytes:   dram,
		L1Bytes:     l1,
		Launches:    1,
		Overlap:     0.70,
		Eff: sim.Efficiency{
			Vector: 0.45,
			DRAM:   sim.EffLibrary,
			L1:     0.9,
		},
	}
}
