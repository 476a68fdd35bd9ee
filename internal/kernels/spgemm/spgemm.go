// Package spgemm implements the SpGEMM workload following AmgT (Lu et al.,
// SC '24): both operands are partitioned into 4×4 mBSR blocks, and the FP64
// m8n8k4 MMA executes two independent 4×4×4 block products per instruction
// (A blocks stacked vertically, B blocks side by side), with only the two
// diagonal 4×4 quadrants of the 8×8 output consumed — Quadrant IV, with the
// paper noting SpGEMM "leverages half of the 8-by-8 output tiles".
package spgemm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// computeBudget caps the scalar multiply count of cases executed for real.
const computeBudget = 1 << 23

// Workload is the SpGEMM kernel, computing C = A·A for the Table 4 matrices.
type Workload struct {
	mu    sync.Mutex
	cache map[string]*caseData
}

type caseData struct {
	mat  *sparse.CSR
	bsr  *sparse.MBSR
	stat symbolicStats
}

// symbolicStats are the structure-only counts behind the profiles.
type symbolicStats struct {
	flopsNNZ      float64 // scalar multiplies of the essential computation
	blockProducts float64 // 4×4×4 block products
	mmas          float64 // MMAs after pairing two products per instruction
	cBlocks       float64 // distinct 4×4 blocks in the output
}

// New returns the SpGEMM workload.
func New() *Workload { return &Workload{cache: map[string]*caseData{}} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "SpGEMM" }

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

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 5000 }

func (w *Workload) data(c workload.Case) (*caseData, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if d, ok := w.cache[c.Dataset]; ok {
		return d, nil
	}
	m, err := sparse.SynthesizeShared(c.Dataset)
	if err != nil {
		return nil, err
	}
	d := &caseData{mat: m, bsr: sparse.ToMBSR(m)}
	d.stat = symbolic(d)
	w.cache[c.Dataset] = d
	return d, nil
}

// symbolicGrain is the fixed chunk size of the parallel symbolic pass;
// chunk boundaries are worker-count independent, so the accumulated stats
// are reproducible for any pool size (par.ReduceTiles contract).
const symbolicGrain = 512

// symbolic runs the structure-only pass: essential multiply count, block
// product count, MMA count under pairing, and output block count. Both
// sweeps fan out on the par engine with per-worker partial stats merged at
// join — the counters are integer-valued, so the merge is exact.
func symbolic(d *caseData) symbolicStats {
	m, b := d.mat, d.bsr
	s := par.ReduceTiles(m.Rows, symbolicGrain,
		func(lo, hi int, acc *symbolicStats) {
			for i := lo; i < hi; i++ {
				for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
					acc.flopsNNZ += float64(m.RowNNZ(int(m.ColIdx[k])))
				}
			}
		},
		func(dst, src *symbolicStats) { dst.flopsNNZ += src.flopsNNZ })
	blk := par.ReduceTiles(b.BlockRows, symbolicGrain,
		func(lo, hi int, acc *symbolicStats) {
			// Epoch-stamped block-column directory, pooled through
			// par.TypedScratch: element 0 carries the buffer's epoch across
			// pool round-trips (fresh TypedScratch buffers are zeroed, recycled
			// ones keep their contents), so a stamp is valid iff it equals the
			// current row's epoch and neither chunks nor rows pay the
			// O(BlockCols) wipe the pre-arena version did — it only happens on
			// the (2³¹-row) epoch wrap.
			buf := symStampScratch.Get(b.BlockCols + 1)
			defer symStampScratch.Put(buf)
			epoch, stamp := buf[0], buf[1:]
			for bi := lo; bi < hi; bi++ {
				if epoch == math.MaxInt32 {
					clear(stamp)
					epoch = 0
				}
				epoch++
				var rowProducts, rowCBlocks float64
				for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
					k := int(b.Blocks[p].BlockCol)
					n := float64(b.RowPtr[k+1] - b.RowPtr[k])
					rowProducts += n
					for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
						j := b.Blocks[q].BlockCol
						if stamp[j] != epoch {
							stamp[j] = epoch
							rowCBlocks++
						}
					}
				}
				acc.blockProducts += rowProducts
				acc.mmas += float64(int(rowProducts+1) / 2)
				acc.cBlocks += rowCBlocks
			}
			buf[0] = epoch
		},
		func(dst, src *symbolicStats) {
			dst.blockProducts += src.blockProducts
			dst.mmas += src.mmas
			dst.cBlocks += src.cBlocks
		})
	s.blockProducts, s.mmas, s.cBlocks = blk.blockProducts, blk.mmas, blk.cBlocks
	return s
}

// Profile implements workload.Workload: the profile of the case's mBSR
// layout and symbolic pass (built once per dataset), with no product
// computed.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	d, err := w.data(c)
	if err != nil {
		return nil, err
	}
	res := &workload.Result{Work: 2 * d.stat.flopsNNZ, MetricName: "GFLOPS"}
	switch v {
	case workload.TC, workload.CC:
		if v == workload.TC {
			res.Profile = tcProfile(d)
		} else {
			res.Profile = ccProfile(d)
		}
		// Two independent products per MMA: half the output tile carries
		// payload; inputs are dense 4×4 blocks at the mBSR fill ratio.
		res.InputUtil = d.bsr.FillRatio(d.mat.NNZ())
		res.OutputUtil = 0.5
	case workload.CCE:
		res.Profile = cceProfile(d)
	case workload.Baseline:
		res.Profile = baselineProfile(d)
	default:
		return nil, fmt.Errorf("spgemm: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the product's row
// sums when the case fits the compute budget.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	d, _ := w.data(c)
	if d.stat.flopsNNZ <= computeBudget {
		switch v {
		case workload.TC, workload.CC:
			res.Output = computeMMA(d)
		case workload.CCE:
			res.Output = computeEssential(d)
		case workload.Baseline:
			res.Output = computeBaseline(d)
		}
	}
	return res, nil
}

// Reference implements workload.Workload: serial row-wise CSR SpGEMM with a
// dense accumulator, separate multiply and add, ascending traversal. The
// canonical output is the vector of C row sums accumulated in ascending
// column order.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	d, err := w.data(c)
	if err != nil {
		return nil, err
	}
	if d.stat.flopsNNZ > computeBudget {
		return nil, fmt.Errorf("spgemm: case %q exceeds the compute budget", c.Name)
	}
	m := d.mat
	out := make([]float64, m.Rows)
	par.ForTiles(m.Rows, func(lo, hi int) {
		acc := scalarAccScratch.Get(m.Cols)
		clear(acc) // pooled contents are unspecified; rows restore zeros
		touched := scalarTouchedScratch.Get(0)
		defer func() {
			scalarAccScratch.Put(acc)
			scalarTouchedScratch.Put(touched)
		}()
		for i := lo; i < hi; i++ {
			touched = growTouched(touched, scalarRowUpperBound(m, i))
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				a := m.Vals[k]
				kr := int(m.ColIdx[k])
				for q := m.RowPtr[kr]; q < m.RowPtr[kr+1]; q++ {
					j := m.ColIdx[q]
					if acc[j] == 0 {
						touched = append(touched, j)
					}
					acc[j] += a * m.Vals[q]
				}
			}
			sortInt32(touched)
			var sum float64
			for _, j := range touched {
				sum += acc[j]
				acc[j] = 0
			}
			out[i] = sum
		}
	})
	return out, nil
}

// Pools of the scalar (element-wise CSR) sweeps: the dense element
// accumulator and the touched/sort-column list that Reference and
// computeBaseline previously allocated per tile range, plus the symbolic
// pass's epoch-stamped directory (one per ReduceTiles chunk before pooling,
// one full wipe per chunk before the epoch arena).
var (
	scalarAccScratch     = par.NewSizedScratch()
	scalarTouchedScratch = par.NewTypedScratch[int32]()
	symStampScratch      = par.NewTypedScratch[int32]()
)

// growTouched returns the touched list emptied, with capacity grown once to
// the row's upper bound so no append inside the row can reallocate (the old
// fixed cap-256 guess reallocated mid-row on wide rows). The undersized
// buffer goes back to the pool for smaller consumers.
func growTouched(touched []int32, ub int) []int32 {
	if cap(touched) < ub {
		scalarTouchedScratch.Put(touched)
		touched = scalarTouchedScratch.Get(ub)
	}
	return touched[:0]
}

// scalarRowUpperBound bounds the distinct output columns of element row i:
// the row's scalar product count, capped at the column dimension.
func scalarRowUpperBound(m *sparse.CSR, i int) int {
	ub := 0
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		ub += m.RowNNZ(int(m.ColIdx[k]))
	}
	if ub > m.Cols {
		ub = m.Cols
	}
	return ub
}

// pendingProduct is one queued 4×4×4 block product.
type pendingProduct struct {
	a, b *sparse.MBSRBlock
	cRow int // 0 or 1: which stacked A half
	jDst int32
}

// pairBatch is the number of paired-product MMAs staged per DMMABatch call:
// enough to amortize the batch's single metrics update while the staging
// panels stay in L1.
const pairBatch = 16

// rowProducts counts the 4×4×4 block products of block-row bi — the
// grow-once upper bound on the row's queue length and distinct C blocks.
func rowProducts(b *sparse.MBSR, bi int) int {
	n := 0
	for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
		k := int(b.Blocks[p].BlockCol)
		n += b.RowPtr[k+1] - b.RowPtr[k]
	}
	return n
}

// computeMMA executes the paired-block SpGEMM on the MMA semantics: two
// queued products per m8n8k4 instruction, diagonal quadrants extracted and
// added into the block accumulators. Returns C row sums (ascending order).
//
// Block rows own disjoint output rows (blockAccum.flush writes rows
// [4·bi, 4·bi+4) only), so the block-row sweep runs through par.ForTiles
// with the per-row accumulation order unchanged. All per-row state — the
// product queue, the tile arena, the MMA staging panels — lives in one
// pooled numericScratch per tile range, so the steady-state sweep performs
// no heap allocation (see arena.go and the AllocsPerRun contracts).
//
// Each chunk of the pair queue is staged into the scratch's A and B panels
// straight from the mBSR block values; test code keeps a whole-sweep
// prestaged operand slab as a bitwise oracle for this staging.
func computeMMA(d *caseData) []float64 {
	b := d.bsr
	mode := CurrentAccumMode()
	out := make([]float64, d.mat.Rows)
	par.ForTiles(b.BlockRows, func(lo, hi int) {
		ns := getNumericScratch()
		defer putNumericScratch(ns)
		aPanel := ns.panels.a[:]
		bPanel := ns.panels.b[:]
		cPanel := ns.panels.c[:]
		denseRows, hashRows := uint64(0), uint64(0)
		for bi := lo; bi < hi; bi++ {
			products := rowProducts(b, bi)
			ns.growQueue(products)
			ns.acc.beginRow(products, b.BlockCols, mode)
			if ns.acc.dense {
				denseRows++
			} else {
				hashRows++
			}
			queue := ns.queue
			acc := &ns.acc
			for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
				ab := &b.Blocks[p]
				k := int(ab.BlockCol)
				for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
					bb := &b.Blocks[q]
					queue = append(queue, pendingProduct{a: ab, b: bb, jDst: bb.BlockCol})
				}
			}
			// The pair queue runs in chunks of pairBatch independent MMAs:
			// stage the chunk's operands (an odd final pair keeps a zero
			// half), execute it with one DMMABatch call (one metrics update,
			// bounds-check-free inner loops), then scatter the diagonal
			// quadrants in the original queue order so every block
			// accumulator sees the exact tile-at-a-time addition sequence.
			for s := 0; s < len(queue); s += 2 * pairBatch {
				n := (min(s+2*pairBatch, len(queue)) - s + 1) / 2
				clear(cPanel[:n*mmu.M*mmu.N])
				clear(aPanel[:n*mmu.M*mmu.K])
				clear(bPanel[:n*mmu.K*mmu.N])
				for i := 0; i < n; i++ {
					base := s + 2*i
					pair := queue[base:min(base+2, len(queue))]
					aT := aPanel[i*mmu.M*mmu.K:]
					bT := bPanel[i*mmu.K*mmu.N:]
					for h, pr := range pair {
						for r := 0; r < sparse.BlockSize; r++ {
							copy(aT[(h*4+r)*mmu.K:(h*4+r)*mmu.K+4], pr.a.Vals[r*4:r*4+4])
							copy(bT[r*mmu.N+h*4:r*mmu.N+h*4+4], pr.b.Vals[r*4:r*4+4])
						}
					}
				}
				mmu.DMMABatch(cPanel[:n*mmu.M*mmu.N], aPanel, bPanel, n)
				for i := 0; i < n; i++ {
					base := s + 2*i
					pair := queue[base:min(base+2, len(queue))]
					cT := cPanel[i*mmu.M*mmu.N:]
					for h, pr := range pair {
						t := acc.tile(pr.jDst)
						for r := 0; r < 4; r++ {
							for cc := 0; cc < 4; cc++ {
								t[r*4+cc] += cT[(h*4+r)*mmu.N+h*4+cc]
							}
						}
					}
				}
			}
			ns.queue = queue
			acc.flush(d, bi, out)
		}
		metDenseRows.Add(denseRows)
		metHashRows.Add(hashRows)
	})
	return out
}

// computeEssential is the CC-E path: the same mBSR traversal but each block
// product executed as essential scalar FMAs chained directly into the block
// accumulator — a different rounding order than the MMA's
// compute-then-add (Table 6).
func computeEssential(d *caseData) []float64 {
	b := d.bsr
	mode := CurrentAccumMode()
	out := make([]float64, d.mat.Rows)
	par.ForTiles(b.BlockRows, func(lo, hi int) {
		ns := getNumericScratch()
		defer putNumericScratch(ns)
		denseRows, hashRows := uint64(0), uint64(0)
		for bi := lo; bi < hi; bi++ {
			acc := &ns.acc
			acc.beginRow(rowProducts(b, bi), b.BlockCols, mode)
			if acc.dense {
				denseRows++
			} else {
				hashRows++
			}
			for p := b.RowPtr[bi]; p < b.RowPtr[bi+1]; p++ {
				ab := &b.Blocks[p]
				k := int(ab.BlockCol)
				for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
					bb := &b.Blocks[q]
					t := acc.tile(bb.BlockCol)
					for r := 0; r < 4; r++ {
						for cc := 0; cc < 4; cc++ {
							v := t[r*4+cc]
							for kk := 0; kk < 4; kk++ {
								v = mmu.FMA(ab.Vals[r*4+kk], bb.Vals[kk*4+cc], v)
							}
							t[r*4+cc] = v
						}
					}
				}
			}
			acc.flush(d, bi, out)
		}
		metDenseRows.Add(denseRows)
		metHashRows.Add(hashRows)
	})
	return out
}

// computeBaseline is the cuSPARSE-class hash SpGEMM: row-wise with a dense
// accumulator but traversing the row's products in reverse order (hash
// insertion order differs from the ascending merge), FMA-contracted.
func computeBaseline(d *caseData) []float64 {
	m := d.mat
	out := make([]float64, m.Rows)
	par.ForTiles(m.Rows, func(lo, hi int) {
		acc := scalarAccScratch.Get(m.Cols)
		clear(acc) // pooled contents are unspecified; rows restore zeros
		touched := scalarTouchedScratch.Get(0)
		defer func() {
			scalarAccScratch.Put(acc)
			scalarTouchedScratch.Put(touched)
		}()
		for i := lo; i < hi; i++ {
			touched = growTouched(touched, scalarRowUpperBound(m, i))
			for k := m.RowPtr[i+1] - 1; k >= m.RowPtr[i]; k-- {
				a := m.Vals[k]
				kr := int(m.ColIdx[k])
				for q := m.RowPtr[kr+1] - 1; q >= m.RowPtr[kr]; q-- {
					j := m.ColIdx[q]
					if acc[j] == 0 {
						touched = append(touched, j)
					}
					acc[j] = mmu.FMA(a, m.Vals[q], acc[j])
				}
			}
			sortInt32(touched)
			var sum float64
			for _, j := range touched {
				sum += acc[j]
				acc[j] = 0
			}
			out[i] = sum
		}
	})
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Profiles.

const blockBytes = sparse.BlockSize*sparse.BlockSize*sim.BytesF64 + sim.BytesIdx

// l2HitRate is the fraction of B-block re-reads served by L2 for the
// blocked (mBSR) traversal: every A block in a block row walks the same B
// block rows, so re-reads hit on chip.
const l2HitRate = 0.82

func tcProfile(d *caseData) sim.Profile {
	s := d.stat
	return sim.Profile{
		TensorFLOPs: s.mmas * mmu.FLOPsPerDMMA,
		IntOps:      s.blockProducts * 8, // pairing, indexing, accumulation control
		DRAMBytes: s.blockProducts*blockBytes*(1-l2HitRate) +
			s.cBlocks*blockBytes*2, // C accumulate + write back
		L2Bytes: s.blockProducts * blockBytes * l2HitRate,
		// B fragment + quadrant extraction per MMA; the A fragment stays
		// resident across the B sweep of its block row.
		L1Bytes:  s.mmas * 1024,
		Launches: 2, // symbolic + numeric phases
		Overlap:  0.85,
		Eff: sim.Efficiency{
			Tensor: sim.EffModerate,
			DRAM:   0.80,
			L2:     0.60,
			L1:     0.85,
		},
	}
}

func ccProfile(d *caseData) sim.Profile {
	p := tcProfile(d)
	p.VectorFLOPs, p.TensorFLOPs = p.TensorFLOPs, 0
	p.Overlap = 0.35
	p.Eff = sim.Efficiency{Vector: 0.30, DRAM: 0.80, L2: 0.60, L1: 0.85}
	return p
}

func cceProfile(d *caseData) sim.Profile {
	s := d.stat
	return sim.Profile{
		// Essential: 128 FLOPs per 4×4×4 block product, no pair padding.
		VectorFLOPs: s.blockProducts * 128,
		IntOps:      s.blockProducts * 8,
		DRAMBytes: s.blockProducts*blockBytes*(1-l2HitRate) +
			s.cBlocks*blockBytes*2,
		L2Bytes:  s.blockProducts * blockBytes * l2HitRate,
		L1Bytes:  s.blockProducts * 384,
		Launches: 2,
		Overlap:  0.60,
		Eff: sim.Efficiency{
			Vector: 0.35,
			DRAM:   0.80,
			L2:     0.60,
			L1:     0.85,
		},
	}
}

func baselineProfile(d *caseData) sim.Profile {
	s := d.stat
	nnz := float64(d.mat.NNZ())
	return sim.Profile{
		VectorFLOPs: 2 * s.flopsNNZ,
		IntOps:      3 * s.flopsNNZ, // hashing and insertion control
		// Row-wise hash SpGEMM re-reads B rows element-wise: most traffic
		// hits L2, the DRAM share is the cold footprint plus C.
		DRAMBytes: nnz*(sim.BytesF64+sim.BytesIdx)*2 +
			s.flopsNNZ*(sim.BytesF64+sim.BytesIdx)*0.12 +
			s.cBlocks*blockBytes,
		L2Bytes:  s.flopsNNZ * (sim.BytesF64 + sim.BytesIdx) * 0.65,
		L1Bytes:  s.flopsNNZ * 24, // hash-table probes
		Launches: 3,               // count, fill, compact
		Overlap:  0.55,
		Eff: sim.Efficiency{
			Vector: 0.35,
			DRAM:   0.45, // irregular hash traffic
			L2:     0.50,
			L1:     0.60,
		},
	}
}
