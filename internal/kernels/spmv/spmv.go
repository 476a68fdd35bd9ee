// Package spmv implements the SpMV workload using the DASP layout (Lu &
// Liu, SC '23): rows grouped by length into 8-lane blocks of 8×4 nonzero
// segments, each segment executed as one FP64 m8n8k4 MMA whose diagonal
// accumulates the per-row partial dot products. Quadrant IV: full input,
// partial (diagonal) output.
package spmv

import (
	"fmt"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload is the SpMV kernel. It builds each case's input once, in a
// flight of its own, so distinct cases build concurrently: the
// synthesized Table 4 matrix with its padded DASP slot count, which is all
// a profile reads of the layout. The layout itself is a second per-case
// flight, built by the first Run that executes it and kept for later runs.
type Workload struct {
	cases  par.Flights[string, *caseData]
	layout par.Flights[string, *sparse.DASP]
}

type caseData struct {
	mat   *sparse.CSR
	x     []float64
	slots int // sparse.DASPPaddedSlots(mat)
}

// New returns the SpMV workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "SpMV" }

// Quadrant implements workload.Workload (Figure 2, Quadrant IV).
func (*Workload) Quadrant() int { return 4 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "Sparse linear algebra" }

// Cases returns the five Table 4 matrices.
func (*Workload) Cases() []workload.Case {
	var cs []workload.Case
	for _, d := range sparse.Table4() {
		cs = append(cs, workload.Case{Name: d.Name, Dataset: d.Name})
	}
	return cs
}

// Variants implements workload.Workload.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC, workload.CCE}
}

// Representative implements workload.Workload: spmsrts, the smallest matrix.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 1_000_000 }

// data returns case c's input, built by the first caller in an input span
// under pprof labels {workload: "SpMV", variant: c.Name, phase: "layout"}
// (trace.BuildInput).
func (w *Workload) data(c workload.Case) (*caseData, error) {
	d, err, _ := w.cases.Do(c.Dataset, func() (*caseData, error) {
		m, err := sparse.SynthesizeShared(c.Dataset)
		if err != nil {
			return nil, err
		}
		d := &caseData{mat: m, x: make([]float64, m.Cols)}
		trace.BuildInput("SpMV", c.Name, "layout", func() {
			lcg.New(int64(m.Cols)).Fill(d.x)
			d.slots = sparse.DASPPaddedSlots(m)
		})
		return d, nil
	})
	return d, err
}

// dasp returns case c's DASP layout, built by the first caller in an input
// span under pprof labels {workload: "SpMV", variant: c.Name+"/dasp",
// phase: "layout"}, so a trace tells it from the case's input.
func (w *Workload) dasp(c workload.Case, d *caseData) *sparse.DASP {
	l, _, _ := w.layout.Do(c.Dataset, func() (l *sparse.DASP, _ error) {
		trace.BuildInput("SpMV", c.Name+"/dasp", "layout", func() { l = sparse.ToDASP(d.mat) })
		return l, nil
	})
	return l
}

// Inputs implements workload.InputReader: every computation of case c
// reads its input and the Table 4 matrix it is built from, and a TC, CC
// or CC-E Run reads its DASP layout too.
func (w *Workload) Inputs(c workload.Case, v workload.Variant, op workload.Op) []par.Input {
	in := []par.Input{w.cases.Input(c.Dataset), sparse.SharedInput(c.Dataset)}
	if op == workload.OpRun && v != workload.Baseline {
		in = append(in, w.layout.Input(c.Dataset))
	}
	return in
}

// Profile implements workload.Workload: the profile of the case's DASP
// layout, read off its padded slot count, with no layout built and no
// product computed.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	d, err := w.data(c)
	if err != nil {
		return nil, err
	}
	nnz := float64(d.mat.NNZ())
	res := &workload.Result{Work: 2 * nnz, MetricName: "GFLOPS"}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(d)
		res.InputUtil = sparse.DASPInputUtilization(d.mat.NNZ(), d.slots)
		res.OutputUtil = 1.0 / mmu.N // diagonal of each 8×8 tile
	case workload.CC:
		res.Profile = ccProfile(d)
		res.InputUtil = sparse.DASPInputUtilization(d.mat.NNZ(), d.slots)
		res.OutputUtil = 1.0 / mmu.N
	case workload.CCE:
		res.Profile = cceProfile(d)
	case workload.Baseline:
		res.Profile = baselineProfile(d)
	default:
		return nil, fmt.Errorf("spmv: unknown variant %q", v)
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
	d, _ := w.data(c)
	switch v {
	case workload.TC, workload.CC:
		res.Output = ApplyDASP(w.dasp(c, d), d.x) // CC: same algorithm on the vector unit
	case workload.CCE:
		res.Output = computeEssential(w.dasp(c, d), d.x)
	case workload.Baseline:
		res.Output = computeBaseline(d)
	}
	return res, nil
}

// Reference implements workload.Workload: serial CSR SpMV with separate
// multiply and add, ascending column order — the paper's CPU ground truth.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	d, err := w.data(c)
	if err != nil {
		return nil, err
	}
	m := d.mat
	y := make([]float64, m.Rows)
	par.ForTiles(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var acc float64
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				acc += m.Vals[k] * d.x[int(m.ColIdx[k])]
			}
			y[i] = acc
		}
	})
	return y, nil
}

// segTile is the element count of one packed 8×4 (or 4×8) operand tile.
const segTile = mmu.M * mmu.K

// ApplyDASP computes y = A·x with the DASP tensor-core algorithm: per
// block, the C tile accumulates over all segments (one MMA each, gathering
// x into the per-lane B columns) and its diagonal holds the lane results.
// Long-row blocks sum their eight lane partials pairwise in lane order.
// Exported so applications (e.g. iterative solvers) can reuse the MMU SpMV
// as a linear operator.
//
// Each block is one mmu.DMMAPanelDiag sweep off the layout's slabs
// (DASP.APanels and the BCols gather indices, which ToDASP emits): it
// computes only the diagonal the algorithm reads, bit-identical to the full
// 8×8 tile, with x read through the index slab, so the hot loop stages
// nothing and allocates nothing but y. The full-tile route (gathered B
// panel, DMMAPanel, diagonal extraction) survives in the tests as the
// bitwise oracle of this route. Each tile range accounts its sweeps'
// counters once, through mmu.AddDiagSweeps.
//
// Blocks are independent — ToDASP assigns each output row to exactly one
// block (long rows occupy all eight lanes of a single block) — so the block
// sweep runs through par.ForTiles with bit-identical results for every
// worker count.
func ApplyDASP(dasp *sparse.DASP, x []float64) []float64 {
	y := make([]float64, dasp.Rows)
	par.ForTiles(len(dasp.Blocks), func(lo, hi int) {
		sweeps := 0
		for bi := lo; bi < hi; bi++ {
			var diag [mmu.M]float64
			segs := int(dasp.SegOff[bi+1] - dasp.SegOff[bi])
			off := int(dasp.SegOff[bi]) * segTile
			mmu.DMMAPanelDiag(&diag, dasp.APanels[off:], x, dasp.BCols[off:], segs)
			finishDASPBlock(&dasp.Blocks[bi], &diag, y)
			if segs > 0 {
				sweeps++
			}
		}
		mmu.AddDiagSweeps(int(dasp.SegOff[hi]-dasp.SegOff[lo]), sweeps)
	})
	return y
}

// finishDASPBlock writes the block's diagonal results into y: long-row
// blocks sum their eight lane partials pairwise in lane order, short/medium
// blocks write each live lane's element.
func finishDASPBlock(blk *sparse.DASPBlock, diag *[mmu.M]float64, y []float64) {
	if blk.Category == sparse.LongRow {
		s01 := diag[0] + diag[1]
		s23 := diag[2] + diag[3]
		s45 := diag[4] + diag[5]
		s67 := diag[6] + diag[7]
		y[blk.RowOf[0]] += (s01 + s23) + (s45 + s67)
		return
	}
	for l := 0; l < mmu.M; l++ {
		if r := blk.RowOf[l]; r >= 0 {
			y[r] = diag[l]
		}
	}
}

// Operator wraps a sparse matrix in its DASP layout as a reusable y = A·x
// linear operator on the MMU semantics.
type Operator struct {
	dasp *sparse.DASP
}

// NewOperator builds the DASP layout for m once.
func NewOperator(m *sparse.CSR) *Operator {
	return &Operator{dasp: sparse.ToDASP(m)}
}

// Apply computes y = A·x. It panics if len(x) does not match the operator.
func (o *Operator) Apply(x []float64) []float64 {
	if len(x) != o.dasp.Cols {
		panic("spmv: operator dimension mismatch")
	}
	return ApplyDASP(o.dasp, x)
}

// Rows returns the operator's output dimension.
func (o *Operator) Rows() int { return o.dasp.Rows }

// computeEssential is the CC-E path: the DASP layout is kept (its row
// reordering and streaming loads remain beneficial — Observation 5) but only
// the real payload slots are multiplied, with per-slot partial accumulators
// combined at the end. The different accumulation order is what makes CC-E
// deviate numerically from TC/CC (Table 6). It reads the A tiles and gather
// indices off the same slabs as ApplyDASP.
func computeEssential(dasp *sparse.DASP, x []float64) []float64 {
	y := make([]float64, dasp.Rows)
	par.ForTiles(len(dasp.Blocks), func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			blk := &dasp.Blocks[bi]
			var part [mmu.M][sparse.DASPSegWidth]float64
			for off := int(dasp.SegOff[bi]) * segTile; off < int(dasp.SegOff[bi+1])*segTile; off += segTile {
				a := (*[segTile]float64)(dasp.APanels[off:])
				cols := (*[segTile]int32)(dasp.BCols[off:])
				for l := 0; l < mmu.M; l++ {
					for k := 0; k < sparse.DASPSegWidth; k++ {
						if v := a[l*mmu.K+k]; v != 0 {
							part[l][k] = mmu.FMA(v, x[cols[k*mmu.N+l]], part[l][k])
						}
					}
				}
			}
			lane := func(l int) float64 {
				return (part[l][0] + part[l][1]) + (part[l][2] + part[l][3])
			}
			if blk.Category == sparse.LongRow {
				var acc float64
				for l := 0; l < mmu.M; l++ {
					acc += lane(l)
				}
				y[blk.RowOf[0]] += acc
				continue
			}
			for l := 0; l < mmu.M; l++ {
				if r := blk.RowOf[l]; r >= 0 {
					y[r] = lane(l)
				}
			}
		}
	})
	return y
}

// computeBaseline is the cuSPARSE-class CSR SpMV: a warp of 32 lanes per
// row, strided partial sums, binary-tree lane reduction. Rows are
// independent, so the sweep runs through par.ForTiles.
func computeBaseline(d *caseData) []float64 {
	m := d.mat
	y := make([]float64, m.Rows)
	par.ForTiles(m.Rows, func(rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			var part [32]float64
			lo, hi := m.RowPtr[i], m.RowPtr[i+1]
			for k := lo; k < hi; k++ {
				l := (k - lo) % 32
				part[l] = mmu.FMA(m.Vals[k], d.x[int(m.ColIdx[k])], part[l])
			}
			for stride := 16; stride >= 1; stride /= 2 {
				for l := 0; l < stride; l++ {
					part[l] += part[l+stride]
				}
			}
			y[i] = part[0]
		}
	})
	return y
}

// Profiles. All variants are DRAM-bound (Section 6.1: Quadrant IV kernels
// strongly benefit from memory bandwidth).

func segments(d *caseData) float64 {
	return float64(d.slots) / segTile
}

// gatherMissRate is the fraction of x-vector gathers that miss L2 and pay
// DRAM bandwidth; the rest are served on chip.
const gatherMissRate = 0.3

func tcProfile(d *caseData) sim.Profile {
	nnz := float64(d.mat.NNZ())
	slots := float64(d.slots)
	rows := float64(d.mat.Rows)
	segs := segments(d)
	return sim.Profile{
		TensorFLOPs: segs * mmu.FLOPsPerDMMA,
		IntOps:      slots, // column-index decode for the x gathers
		DRAMBytes: slots*(sim.BytesF64+sim.BytesIdx) +
			nnz*sim.BytesF64*gatherMissRate + rows*sim.BytesF64,
		L2Bytes:  nnz * sim.BytesF64 * (1 - gatherMissRate),
		L1Bytes:  segs * 1024, // A, B, C fragment staging per MMA
		Launches: 1,
		Overlap:  0.88,
		Eff: sim.Efficiency{
			Tensor: sim.EffModerate,
			DRAM:   0.88, // DASP's packed layout streams
			L2:     0.7,
			L1:     0.9,
		},
	}
}

func ccProfile(d *caseData) sim.Profile {
	p := tcProfile(d)
	p.VectorFLOPs, p.TensorFLOPs = p.TensorFLOPs, 0
	p.Overlap = 0.30
	p.Eff = sim.Efficiency{Vector: 0.30, DRAM: 0.88, L2: 0.7, L1: 0.9}
	return p
}

func cceProfile(d *caseData) sim.Profile {
	nnz := float64(d.mat.NNZ())
	rows := float64(d.mat.Rows)
	return sim.Profile{
		VectorFLOPs: 2 * nnz,
		IntOps:      nnz,
		DRAMBytes: nnz*(sim.BytesF64+sim.BytesIdx) +
			nnz*sim.BytesF64*gatherMissRate + rows*sim.BytesF64,
		L2Bytes:  nnz * sim.BytesF64 * (1 - gatherMissRate),
		L1Bytes:  2 * nnz * sim.BytesF64,
		Launches: 1,
		Overlap:  0.70,
		Eff: sim.Efficiency{
			Vector: sim.EffModerate,
			DRAM:   0.88, // keeps DASP's streaming layout (Observation 5)
			L2:     0.7,
			L1:     0.9,
		},
	}
}

func baselineProfile(d *caseData) sim.Profile {
	nnz := float64(d.mat.NNZ())
	rows := float64(d.mat.Rows)
	return sim.Profile{
		VectorFLOPs: 2 * nnz,
		IntOps:      nnz,
		// CSR gathers hit DRAM harder: no packing, irregular x access.
		DRAMBytes: nnz*(sim.BytesF64+sim.BytesIdx) +
			nnz*sim.BytesF64*0.5 + rows*sim.BytesF64,
		L2Bytes:  nnz * sim.BytesF64 * 0.5,
		L1Bytes:  2 * nnz * sim.BytesF64,
		Launches: 1,
		Overlap:  0.60,
		Eff: sim.Efficiency{
			Vector: sim.EffModerate,
			DRAM:   sim.EffModerate, // divergent row lengths underuse BW
			L2:     0.6,
			L1:     0.9,
		},
	}
}
