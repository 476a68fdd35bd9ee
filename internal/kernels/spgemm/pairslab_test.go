package spgemm

import (
	"math"
	"testing"

	"repro/internal/mmu"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// pairTile is the per-MMA float count of each slab side: the stacked A
// halves form one M×K tile, the side-by-side B halves one K×N tile, and
// M·K == K·N == 32.
const pairTile = mmu.M * mmu.K

// pairSlab is the oracle's operand layout: every paired-product MMA of the
// whole sweep, staged once. MMA i's A tile sits at a[i·pairTile:] and its B
// tile at b[i·pairTile:]; off[bi] is the first MMA of block row bi. An odd
// final pair of a row keeps a zero second half.
func pairSlab(bsr *sparse.MBSR) (a, b []float64, off []int) {
	off = make([]int, bsr.BlockRows+1)
	for bi := 0; bi < bsr.BlockRows; bi++ {
		off[bi+1] = off[bi] + (rowProducts(bsr, bi)+1)/2
	}
	total := off[bsr.BlockRows]
	a = make([]float64, total*pairTile)
	b = make([]float64, total*pairTile)
	for bi := 0; bi < bsr.BlockRows; bi++ {
		idx := 0
		for p := bsr.RowPtr[bi]; p < bsr.RowPtr[bi+1]; p++ {
			ab := &bsr.Blocks[p]
			k := int(ab.BlockCol)
			for q := bsr.RowPtr[k]; q < bsr.RowPtr[k+1]; q++ {
				bb := &bsr.Blocks[q]
				o := (off[bi] + idx/2) * pairTile
				half := idx % 2
				// A halves stack vertically: a straight 16-float move.
				*(*[16]float64)(a[o+half*16:]) = ab.Vals
				// B halves sit side by side: four 4-wide strided moves.
				tensor.Pack4Stride(b[o+half*4:], mmu.N, bb.Vals[:], sparse.BlockSize, sparse.BlockSize)
				idx++
			}
		}
	}
	return a, b, off
}

// computeMMAFromPairSlab is the oracle route for computeMMA: one DMMABatch
// per block row straight off the whole-sweep pair slab, serially, with the
// diagonal quadrants scattered in queue order into the same accumulator
// arena. It shares no staging code with computeMMA.
func computeMMAFromPairSlab(d *caseData) []float64 {
	bsr := d.bsr
	slabA, slabB, off := pairSlab(bsr)
	out := make([]float64, d.mat.Rows)
	ns := getNumericScratch()
	defer putNumericScratch(ns)
	for bi := 0; bi < bsr.BlockRows; bi++ {
		n := off[bi+1] - off[bi]
		ns.acc.beginRow(rowProducts(bsr, bi), bsr.BlockCols, AccumAdaptive)
		c := make([]float64, n*mmu.M*mmu.N)
		mmu.DMMABatch(c, slabA[off[bi]*pairTile:], slabB[off[bi]*pairTile:], n)
		idx := 0
		for p := bsr.RowPtr[bi]; p < bsr.RowPtr[bi+1]; p++ {
			k := int(bsr.Blocks[p].BlockCol)
			for q := bsr.RowPtr[k]; q < bsr.RowPtr[k+1]; q++ {
				cT := c[(idx/2)*mmu.M*mmu.N:]
				h := idx % 2
				t := ns.acc.tile(bsr.Blocks[q].BlockCol)
				for r := 0; r < 4; r++ {
					for cc := 0; cc < 4; cc++ {
						t[r*4+cc] += cT[(h*4+r)*mmu.N+h*4+cc]
					}
				}
				idx++
			}
		}
		ns.acc.flush(d, bi, out)
	}
	return out
}

// TestComputeMMAPrestageBitIdentical pins computeMMA's per-chunk staging to
// the prestaged pair-slab oracle bitwise, on every Table 4 matrix within
// the compute budget.
func TestComputeMMAPrestageBitIdentical(t *testing.T) {
	w := New()
	checked := 0
	for _, c := range w.Cases() {
		d, err := w.data(c)
		if err != nil {
			t.Fatal(err)
		}
		if d.stat.flopsNNZ > computeBudget {
			continue
		}
		checked++
		want := computeMMAFromPairSlab(d)
		got := computeMMA(d)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: differs bitwise at %d: %v vs %v", c.Name, i, got[i], want[i])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no Table 4 case within the compute budget")
	}
}
