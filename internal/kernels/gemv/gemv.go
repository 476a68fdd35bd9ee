// Package gemv implements the GEMV workload: y = A·x for tall-skinny dense
// matrices. The TC version partitions A into 8×4 blocks, broadcasts the
// matching x segment into all eight columns of the 4×8 B operand, runs the
// FP64 m8n8k4 MMA, and extracts one column of the (all-equal-column) output
// tile — Quadrant IV: full input, partial output (Figure 2).
package gemv

import (
	"fmt"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Workload is the GEMV kernel. Each case's A and x are synthesized once
// and shared read-only by every variant's Run and by the Reference: every
// product only reads them.
type Workload struct {
	operand workload.Operand[gemvOperands]
}

// gemvOperands is one case's A and x.
type gemvOperands struct {
	a *tensor.Matrix
	x []float64
}

// New returns the GEMV workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "GEMV" }

// Quadrant implements workload.Workload (Figure 2, Quadrant IV).
func (*Workload) Quadrant() int { return 4 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "Dense linear algebra" }

// Cases returns the five M×N test cases of Table 2.
func (*Workload) Cases() []workload.Case {
	mk := func(m, n int, name string) workload.Case {
		return workload.Case{Name: name, Dims: []int{m, n}}
	}
	return []workload.Case{
		mk(4096, 16, "4Kx16"),
		mk(4096, 32, "4Kx32"),
		mk(11264, 16, "11Kx16"),
		mk(32768, 16, "32Kx16"),
		mk(40960, 16, "40Kx16"),
	}
}

// Variants implements workload.Workload.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC, workload.CCE}
}

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload: GEMV is the 6M-repeat micro-kernel
// of Figure 7.
func (*Workload) Repeats() int { return 6_000_000 }

func dims(c workload.Case) (m, n int, err error) {
	if len(c.Dims) != 2 {
		return 0, 0, fmt.Errorf("gemv: case %q needs 2 dims", c.Name)
	}
	return c.Dims[0], c.Dims[1], nil
}

// operands returns case c's shared A and x.
func (w *Workload) operands(c workload.Case) (*tensor.Matrix, []float64) {
	o := w.operand.Get("GEMV", c, func() gemvOperands {
		a, x := inputs(c.Dims[0], c.Dims[1])
		return gemvOperands{a, x}
	})
	return o.a, o.x
}

// Inputs implements workload.InputReader: Run and Reference read the
// case's operands; Profile reads nothing.
func (w *Workload) Inputs(c workload.Case, _ workload.Variant, op workload.Op) []par.Input {
	if op == workload.OpProfile {
		return nil
	}
	return []par.Input{w.operand.Input(c)}
}

func inputs(m, n int) (*tensor.Matrix, []float64) {
	g := lcg.New(int64(m)*31 + int64(n))
	a := tensor.NewMatrix(m, n)
	x := make([]float64, n)
	g.Fill(a.Data)
	g.Fill(x)
	return a, x
}

// Profile implements workload.Workload: the closed-form profile, with no
// product computed.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	m, n, err := dims(c)
	if err != nil {
		return nil, err
	}
	res := &workload.Result{
		Work:       2 * float64(m) * float64(n),
		MetricName: "GFLOPS",
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(m, n)
		res.InputUtil, res.OutputUtil = 1, 1.0/mmu.N
	case workload.CC:
		res.Profile = ccProfile(m, n)
		res.InputUtil, res.OutputUtil = 1, 1.0/mmu.N
	case workload.CCE:
		res.Profile = cceProfile(m, n)
	case workload.Baseline:
		res.Profile = baselineProfile(m, n)
	default:
		return nil, fmt.Errorf("gemv: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the product y = A·x
// computed by the variant's algorithm.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	a, x := w.operands(c)
	switch v {
	case workload.TC, workload.CC:
		res.Output = computeMMA(a, x) // CC: identical algorithm on the vector unit
	case workload.CCE:
		res.Output = computeEssential(a, x)
	case workload.Baseline:
		res.Output = computeBaseline(a, x)
	}
	return res, nil
}

// Reference implements workload.Workload: serial dot products with separate
// multiply and add.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	m, n, err := dims(c)
	if err != nil {
		return nil, err
	}
	a, x := w.operands(c)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		var acc float64
		for j := 0; j < n; j++ {
			acc += a.At(i, j) * x[j]
		}
		y[i] = acc
	}
	return y, nil
}

// gemvScratch pools the packed A operand, the C accumulator and the
// broadcast B panel, whose lengths depend on the case's extents.
var gemvScratch = par.NewSizedScratch()

// computeMMA runs the TC algorithm on the panel engine: 8-row blocks of A,
// x broadcast into B, a fused k-sweep per block, first column of C extracted
// as y. The broadcast B panel depends only on x, so it is built once per call
// and reused by every row block (the tile-at-a-time version rebuilt the same
// 4×8 broadcast tile m/8 × n/4 times); the whole A operand is packed once
// per call into pooled scratch. Per element the FMA chain is the tile
// loop's ascending-k chain, so results are bit-identical to it.
func computeMMA(a *tensor.Matrix, x []float64) []float64 {
	m, n := a.Rows, a.Cols
	y := make([]float64, m)
	kTiles := (n + mmu.K - 1) / mmu.K
	aStride := kTiles * mmu.M * mmu.K
	aAll := gemvScratch.Get((m + mmu.M - 1) / mmu.M * aStride)
	defer gemvScratch.Put(aAll)
	a.PackAPanels(aAll, kTiles)
	buf := gemvScratch.Get(mmu.M*mmu.N + kTiles*mmu.K*mmu.N)
	defer gemvScratch.Put(buf)
	cT := buf[0 : mmu.M*mmu.N]
	bPanel := buf[mmu.M*mmu.N:]
	for t := 0; t < kTiles; t++ {
		tile := bPanel[t*mmu.K*mmu.N:]
		for k := 0; k < mmu.K; k++ {
			var xv float64
			if t*mmu.K+k < n {
				xv = x[t*mmu.K+k]
			}
			for j := 0; j < mmu.N; j++ {
				tile[k*mmu.N+j] = xv // broadcast x into every column
			}
		}
	}
	for i0, ti := 0, 0; i0 < m; i0, ti = i0+mmu.M, ti+1 {
		aPanel := aAll[ti*aStride : (ti+1)*aStride]
		for i := range cT {
			cT[i] = 0
		}
		mmu.DMMAPanel(cT, aPanel, bPanel, kTiles)
		for i := 0; i < mmu.M && i0+i < m; i++ {
			y[i0+i] = cT[i*mmu.N] // column 0 of the all-equal output tile
		}
	}
	return y
}

// computeEssential is the CC-E path: only the mathematically necessary
// multiply-adds, vectorized four lanes per row with strided partial sums —
// a different accumulation order than the MMA chain (Table 6: CC-E deviates
// from TC/CC).
func computeEssential(a *tensor.Matrix, x []float64) []float64 {
	m, n := a.Rows, a.Cols
	y := make([]float64, m)
	const lanes = 4
	for i := 0; i < m; i++ {
		var part [lanes]float64
		for j := 0; j < n; j++ {
			part[j%lanes] = mmu.FMA(a.At(i, j), x[j], part[j%lanes])
		}
		y[i] = (part[0] + part[1]) + (part[2] + part[3])
	}
	return y
}

// computeBaseline is the cuBLAS-class vector GEMV: a warp of 32 lanes per
// row with strided partial sums and a binary-tree lane reduction.
func computeBaseline(a *tensor.Matrix, x []float64) []float64 {
	m, n := a.Rows, a.Cols
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		var part [32]float64
		for j := 0; j < n; j++ {
			part[j%32] = mmu.FMA(a.At(i, j), x[j], part[j%32])
		}
		for stride := 16; stride >= 1; stride /= 2 {
			for l := 0; l < stride; l++ {
				part[l] += part[l+stride]
			}
		}
		y[i] = part[0]
	}
	return y
}

// Profiles. GEMV is memory-bound: AI = 2 FLOPs per 8-byte element of A.

func baseBytes(m, n int) float64 {
	return (float64(m)*float64(n) + float64(m) + float64(n)) * sim.BytesF64
}

func tcProfile(m, n int) sim.Profile {
	mn := float64(m) * float64(n)
	return sim.Profile{
		// Every MMA computes 8 identical output columns: 8× redundancy.
		TensorFLOPs: 16 * mn,
		DRAMBytes:   baseBytes(m, n),
		L1Bytes:     16 * mn, // fragment staging: 512 B per 32 payload elems
		ConstBytes:  float64(n) * sim.BytesF64 * float64(m) / mmu.M,
		Launches:    1,
		Overlap:     0.90,
		Eff: sim.Efficiency{
			Tensor: sim.EffModerate,
			DRAM:   0.90, // regularized block loads stream A
			L1:     0.9,
		},
	}
}

func ccProfile(m, n int) sim.Profile {
	p := tcProfile(m, n)
	p.VectorFLOPs, p.TensorFLOPs = p.TensorFLOPs, 0
	p.Overlap = 0.35 // scalar MMA emulation overlaps poorly
	p.Eff = sim.Efficiency{Vector: 0.30, DRAM: 0.90, L1: 0.9}
	return p
}

func cceProfile(m, n int) sim.Profile {
	mn := float64(m) * float64(n)
	return sim.Profile{
		VectorFLOPs: 2 * mn,
		DRAMBytes:   baseBytes(m, n),
		L1Bytes:     2 * mn,
		Launches:    1,
		Overlap:     0.70,
		Eff: sim.Efficiency{
			Vector: sim.EffModerate,
			// Without the MMA block layout the row-major loads of the
			// skinny matrix coalesce slightly worse.
			DRAM: 0.82,
			L1:   0.9,
		},
	}
}

func baselineProfile(m, n int) sim.Profile {
	mn := float64(m) * float64(n)
	return sim.Profile{
		VectorFLOPs: 2 * mn,
		DRAMBytes:   baseBytes(m, n),
		L1Bytes:     2 * mn,
		Launches:    1,
		Overlap:     0.75,
		Eff: sim.Efficiency{
			Vector: 0.60,
			DRAM:   0.70, // cuBLAS GEMV on very skinny matrices underuses BW
			L1:     0.9,
		},
	}
}
