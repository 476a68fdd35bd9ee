package spmv

import (
	"math"
	"testing"

	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sparse"
)

// mixedCSR builds a matrix with short, medium, and long DASP rows so every
// prestage code path (including the lane-split long-row finish) executes.
func mixedCSR(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	const rows, cols = 48, 160
	coo := sparse.NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		var nnz int
		switch {
		case i%12 == 0:
			nnz = 90 // long
		case i%3 == 0:
			nnz = 24 // medium
		default:
			nnz = 1 + i%4 // short
		}
		for k := 0; k < nnz; k++ {
			coo.Add(i, (i*29+k*7)%cols, float64(i+1)+float64(k)*0.0625)
		}
	}
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, cols)
	for j := range x {
		x[j] = 1.0 + float64(j)*0.03125
	}
	return m, x
}

func bitEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: differs bitwise at %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// applyDASPStaged is the oracle route for ApplyDASP: the per-call staging
// loop the kernel ran before the prestaged slabs, packing both the A tiles
// and the gathered B tiles from Segments on every apply.
func applyDASPStaged(dasp *sparse.DASP, x, y []float64) {
	par.ForTiles(len(dasp.Blocks), func(lo, hi int) {
		cT := daspScratch.Get()
		defer daspScratch.Put(cT)
		maxSegs := dasp.MaxSegs
		panels := daspPanelScratch.Get(maxSegs * (mmu.M*mmu.K + mmu.K*mmu.N))
		defer daspPanelScratch.Put(panels)
		aPanel := panels[0 : maxSegs*mmu.M*mmu.K]
		bPanel := panels[maxSegs*mmu.M*mmu.K:]
		for bi := lo; bi < hi; bi++ {
			blk := &dasp.Blocks[bi]
			for i := range cT {
				cT[i] = 0
			}
			for si := range blk.Segments {
				seg := &blk.Segments[si]
				aT := aPanel[si*mmu.M*mmu.K:]
				bT := bPanel[si*mmu.K*mmu.N:]
				for l := 0; l < mmu.M; l++ {
					for k := 0; k < mmu.K; k++ {
						aT[l*mmu.K+k] = seg.Vals[l][k]
						bT[k*mmu.N+l] = x[seg.Cols[l][k]]
					}
				}
			}
			mmu.DMMAPanel(cT, aPanel, bPanel, len(blk.Segments))
			finishDASPBlock(blk, cT, y)
		}
	})
}

// TestApplyDASPPrestageBitIdentical pins ApplyDASP, which consumes the
// prestaged APanels/BCols slabs, bitwise to the per-call staging oracle on
// a matrix covering all three row categories.
func TestApplyDASPPrestageBitIdentical(t *testing.T) {
	m, x := mixedCSR(t)
	dasp := sparse.ToDASP(m)
	on := ApplyDASP(dasp, x)
	off := make([]float64, dasp.Rows)
	applyDASPStaged(dasp, x, off)
	bitEqual(t, "prestaged vs staged", on, off)

	// Both must also be the true product, not merely mutually consistent.
	for i := 0; i < m.Rows; i++ {
		var acc float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			acc += m.Vals[k] * x[m.ColIdx[k]]
		}
		if d := math.Abs(on[i] - acc); d > 1e-9 {
			t.Fatalf("row %d: prestaged result %v vs scalar %v", i, on[i], acc)
		}
	}
}

// applyAllocsBudget bounds a warm ApplyDASP call: the output vector plus
// ForTiles bookkeeping; the staging scratch must come from the pools.
const applyAllocsBudget = 64

// TestApplyDASPWarmAllocs is the steady-state allocation contract of the
// prestaged apply: once the pools are warm, no per-block staging allocation
// remains.
func TestApplyDASPWarmAllocs(t *testing.T) {
	m, x := mixedCSR(t)
	dasp := sparse.ToDASP(m)
	ApplyDASP(dasp, x) // warm the pools
	if n := testing.AllocsPerRun(5, func() { ApplyDASP(dasp, x) }); n > applyAllocsBudget {
		t.Errorf("%v allocs/run, want ≤ %d", n, applyAllocsBudget)
	}
}
