package spmv

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lcg"
	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sparse"
)

// mixedCSR builds a matrix with short, medium, and long DASP rows so every
// apply code path (including the lane-split long-row finish) executes.
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

// daspMaxSegs is the most segments any block of the layout holds: the size,
// in tiles, of the oracle's per-block B panel.
func daspMaxSegs(dasp *sparse.DASP) int {
	n := 0
	for bi := range dasp.Blocks {
		n = max(n, int(dasp.SegOff[bi+1]-dasp.SegOff[bi]))
	}
	return n
}

// gather4 sets dst[i] = src[idx[i]] for every i, 4-wide unrolled so the
// compiler hoists the dst/idx bounds checks out of the unrolled body — the
// B-operand gather of the full-tile oracle (the layout's flat column
// indices → packed 4×8 tiles). len(idx) must be at least len(dst); the
// indices must be valid for src (the DASP builder guarantees both).
func gather4(dst, src []float64, idx []int32) {
	n := len(dst)
	idx = idx[:n] // one bound, hoisted out of the loop below
	i := 0
	for ; i+4 <= n; i += 4 {
		d := (*[4]float64)(dst[i:])
		x := (*[4]int32)(idx[i:])
		d[0] = src[x[0]]
		d[1] = src[x[1]]
		d[2] = src[x[2]]
		d[3] = src[x[3]]
	}
	for ; i < n; i++ {
		dst[i] = src[idx[i]]
	}
}

// applyDASPFullTile is the full-tile oracle route for ApplyDASP, the body
// ApplyDASP ran before mmu.DMMAPanelDiag: per block, gather the B panel
// 4-wide off the BCols slab, sweep all 64 accumulator elements with
// mmu.DMMAPanel over the prepacked A tiles, then extract the diagonal.
func applyDASPFullTile(dasp *sparse.DASP, x []float64) []float64 {
	y := make([]float64, dasp.Rows)
	maxSegs := daspMaxSegs(dasp)
	par.ForTiles(len(dasp.Blocks), func(lo, hi int) {
		cT := make([]float64, mmu.M*mmu.N)
		bPanel := make([]float64, maxSegs*segTile)
		for bi := lo; bi < hi; bi++ {
			blk := &dasp.Blocks[bi]
			for i := range cT {
				cT[i] = 0
			}
			// Gather the block's B panel 4-wide off the flat index slab and
			// sweep all its segments fused with the prepacked A tiles.
			segs := int(dasp.SegOff[bi+1] - dasp.SegOff[bi])
			off := int(dasp.SegOff[bi]) * segTile
			gather4(bPanel[:segs*segTile], x, dasp.BCols[off:])
			mmu.DMMAPanel(cT, dasp.APanels[off:], bPanel, segs)
			finishDASPTile(blk, cT, y)
		}
	})
	return y
}

// finishDASPTile extracts the block's diagonal results from the full 8×8
// accumulator into y: long-row blocks sum their eight lane partials
// pairwise in lane order, short/medium blocks write each live lane's
// diagonal element.
func finishDASPTile(blk *sparse.DASPBlock, cT, y []float64) {
	if blk.Category == sparse.LongRow {
		r := blk.RowOf[0]
		var partial [mmu.M]float64
		for l := 0; l < mmu.M; l++ {
			partial[l] = cT[l*mmu.N+l]
		}
		s01 := partial[0] + partial[1]
		s23 := partial[2] + partial[3]
		s45 := partial[4] + partial[5]
		s67 := partial[6] + partial[7]
		y[r] += (s01 + s23) + (s45 + s67)
		return
	}
	for l := 0; l < mmu.M; l++ {
		if r := blk.RowOf[l]; r >= 0 {
			y[r] = cT[l*mmu.N+l]
		}
	}
}

// TestApplyDASPPrestageBitIdentical pins ApplyDASP, the diagonal-only sweep
// off the layout's slabs, bitwise to the full-tile oracle on a matrix
// covering all three row categories.
func TestApplyDASPPrestageBitIdentical(t *testing.T) {
	m, x := mixedCSR(t)
	dasp := sparse.ToDASP(m)
	got := ApplyDASP(dasp, x)
	bitEqual(t, "diagonal vs full tile", got, applyDASPFullTile(dasp, x))

	// It must also be the true product, not merely consistent with the oracle.
	for i := 0; i < m.Rows; i++ {
		var acc float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			acc += m.Vals[k] * x[m.ColIdx[k]]
		}
		if d := math.Abs(got[i] - acc); d > 1e-9 {
			t.Fatalf("row %d: result %v vs scalar %v", i, got[i], acc)
		}
	}
}

// specialX returns a copy of x with ±Inf, NaN, −0 and subnormals written at
// columns the matrix gathers: the column of every 7th stored nonzero, in
// turn, skipping column 0 unless zeroCol is set. Column 0 is where every
// padded slot gathers from, so a special value there multiplies the
// padding's zeros too (0·Inf = NaN).
func specialX(m *sparse.CSR, x []float64, zeroCol bool) []float64 {
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -0x1p-1030, 0x1.8p-1060,
	}
	sx := append([]float64(nil), x...)
	j := 0
	for k := 0; k < len(m.ColIdx); k += 7 {
		if c := m.ColIdx[k]; c != 0 || zeroCol {
			sx[c] = specials[j%len(specials)]
			j++
		}
	}
	if zeroCol {
		sx[0] = math.Inf(1)
	}
	return sx
}

// sameBits fails unless got and want agree bitwise, except that where want
// is NaN got need only be NaN: the sign and payload of a generated NaN are
// not portable.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(want[i]) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("%s: element %d = %v, want NaN", label, i, got[i])
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: differs bitwise at %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestApplyDASPSpecialValues pins ApplyDASP to the full-tile oracle when x
// holds ±Inf, NaN, −0 and subnormals at gathered columns, on the
// mixed-category matrix and on spmsrts. The diagonal sweep never computes an off-diagonal
// accumulator element, and none feeds a diagonal one, so even values that
// poison a whole tile (NaN, 0·Inf on the padding) must match the full-tile
// route element for element.
func TestApplyDASPSpecialValues(t *testing.T) {
	mixed, xMixed := mixedCSR(t)
	spm, err := sparse.Synthesize("spmsrts")
	if err != nil {
		t.Fatal(err)
	}
	xSpm := make([]float64, spm.Cols)
	lcg.New(int64(spm.Cols)).Fill(xSpm)
	for _, tc := range []struct {
		name string
		m    *sparse.CSR
		x    []float64
	}{{"mixed", mixed, xMixed}, {"spmsrts", spm, xSpm}} {
		for _, zeroCol := range []bool{false, true} {
			label := fmt.Sprintf("%s zeroCol=%v", tc.name, zeroCol)
			dasp := sparse.ToDASP(tc.m)
			x := specialX(tc.m, tc.x, zeroCol)
			got := ApplyDASP(dasp, x)
			sameBits(t, label+" diagonal vs full tile", got, applyDASPFullTile(dasp, x))

			// The inputs must reach every kind of result, or the
			// comparison says nothing about the special values.
			var nan, inf, finite int
			for _, v := range got {
				switch {
				case math.IsNaN(v):
					nan++
				case math.IsInf(v, 0):
					inf++
				default:
					finite++
				}
			}
			if nan == 0 || finite == 0 || (!zeroCol && inf == 0) {
				t.Fatalf("%s: %d NaN, %d Inf, %d finite rows; the special values do not reach the output",
					label, nan, inf, finite)
			}
		}
	}
}

// withEmptyBlock returns m with eight empty rows in front. They are the
// matrix's first eight short rows, so ToDASP packs them into a block of 0
// segments, which runs no MMA and counts nothing.
func withEmptyBlock(m *sparse.CSR) *sparse.CSR {
	const empty = 8
	e := &sparse.CSR{Rows: m.Rows + empty, Cols: m.Cols, ColIdx: m.ColIdx, Vals: m.Vals,
		RowPtr: make([]int, empty, empty+len(m.RowPtr))}
	e.RowPtr = append(e.RowPtr, m.RowPtr...)
	return e
}

// TestApplyDASPCounterParity pins the MMU counters of the diagonal sweep,
// which ApplyDASP accounts once per tile range, to the per-block sums a
// DMMAPanel call per block counts: one tile per segment, and one panel
// sweep and 2·segs+2 fragment ops per block of at least one segment. The
// full-tile route, which runs DMMAPanel per block, must count the same. The
// matrices include a block of 0 segments, at one and two workers.
func TestApplyDASPCounterParity(t *testing.T) {
	counters := []*metrics.ShardedCounter{
		metrics.NewShardedCounter("cubie_mmu_dmma_tiles_total", ""),
		metrics.NewShardedCounter("cubie_mmu_dmma_panels_total", ""),
		metrics.NewShardedCounter("cubie_mmu_fragment_ops_total", ""),
	}
	deltas := func(apply func()) []uint64 {
		before := make([]uint64, len(counters))
		for i, c := range counters {
			before[i] = c.Value()
		}
		apply()
		d := make([]uint64, len(counters))
		for i, c := range counters {
			d[i] = c.Value() - before[i]
		}
		return d
	}
	m, x := mixedCSR(t)
	for _, tc := range []struct {
		name string
		m    *sparse.CSR
	}{{"mixed", m}, {"empty block", withEmptyBlock(m)}} {
		dasp := sparse.ToDASP(tc.m)
		want := make([]uint64, len(counters))
		emptyBlocks := 0
		for bi := range dasp.Blocks {
			segs := uint64(dasp.SegOff[bi+1] - dasp.SegOff[bi])
			want[0] += segs
			if segs == 0 {
				emptyBlocks++
				continue
			}
			want[1]++
			want[2] += 2*segs + 2
		}
		if tc.name == "empty block" && emptyBlocks == 0 {
			t.Fatal("the layout has no block of 0 segments")
		}
		for _, workers := range []int{1, 2} {
			prev := par.SetWorkers(workers)
			got := deltas(func() { ApplyDASP(dasp, x) })
			oracle := deltas(func() { applyDASPFullTile(dasp, x) })
			par.SetWorkers(prev)
			for i, c := range []string{"tiles", "panels", "fragment ops"} {
				if got[i] != want[i] {
					t.Errorf("%s, %d workers: ApplyDASP added %d %s, the per-block sum is %d",
						tc.name, workers, got[i], c, want[i])
				}
				if oracle[i] != want[i] {
					t.Errorf("%s, %d workers: the full-tile route added %d %s, the per-block sum is %d",
						tc.name, workers, oracle[i], c, want[i])
				}
			}
		}
	}
}

// applyAllocsBudget bounds a warm ApplyDASP call on mixedCSR: the output
// vector and the sweep closure, plus ForTiles' per-range bookkeeping, which
// grows with the worker count up to one range per block (10 blocks: 2
// allocations at one worker, 7 at two, 15 from ten on). The per-block
// accumulator lives on the stack.
const applyAllocsBudget = 15

// TestApplyDASPWarmAllocs is the steady-state allocation contract of the
// apply: no per-block allocation remains.
func TestApplyDASPWarmAllocs(t *testing.T) {
	m, x := mixedCSR(t)
	dasp := sparse.ToDASP(m)
	if n := testing.AllocsPerRun(5, func() { ApplyDASP(dasp, x) }); n > applyAllocsBudget {
		t.Errorf("%v allocs/run, want ≤ %d", n, applyAllocsBudget)
	}
}

// TestGather4 pins the 4-wide gather against the scalar definition
// dst[i] = src[idx[i]] across remainder lengths 0..3.
func TestGather4(t *testing.T) {
	src := make([]float64, 100)
	for i := range src {
		src[i] = float64(i)*1.5 + 0.25
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 33} {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32((i*37 + 11) % len(src))
		}
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = -1 // dirty, must be fully overwritten
		}
		gather4(dst, src, idx)
		for i := range dst {
			if dst[i] != src[idx[i]] {
				t.Fatalf("n=%d: dst[%d] = %v, want src[%d] = %v",
					n, i, dst[i], idx[i], src[idx[i]])
			}
		}
	}
}

// TestGather4LongIndex checks an index slice longer than dst only
// contributes its prefix.
func TestGather4LongIndex(t *testing.T) {
	src := []float64{10, 20, 30, 40, 50}
	idx := []int32{4, 3, 2, 1, 0, 4, 4}
	dst := make([]float64, 5)
	gather4(dst, src, idx)
	want := []float64{50, 40, 30, 20, 10}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}
