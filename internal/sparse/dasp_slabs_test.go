package sparse

import (
	"math"
	"testing"
)

// mixedDASPCSR builds a matrix exercising all three DASP row categories:
// short (≤4 nnz), medium (≤64), and long (>64, lane-split) rows, with enough
// rows to produce multiple blocks per category.
func mixedDASPCSR(t *testing.T) *CSR {
	t.Helper()
	const rows, cols = 40, 150
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		var nnz int
		switch {
		case i%10 == 0:
			nnz = 100 // long
		case i%3 == 0:
			nnz = 20 // medium
		default:
			nnz = 1 + i%4 // short
		}
		for k := 0; k < nnz; k++ {
			j := (i*31 + k*7) % cols
			coo.Add(i, j, float64(i+1)+float64(k)*0.125)
		}
	}
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// daspSegment is one 8×4 tile of the oracle layout: Vals[l][k] is the k-th
// payload of lane l, drawn from column Cols[l][k]. Padding entries have
// value 0 and column 0.
type daspSegment struct {
	Vals [DASPRowsPerBlock][DASPSegWidth]float64
	Cols [DASPRowsPerBlock][DASPSegWidth]int32
}

// daspOracle is the segment-building layout ToDASP emitted before it wrote
// the slabs directly: the blocks in order, each with its own array of 8×4
// segments.
func daspOracle(m *CSR) ([]DASPBlock, [][]daspSegment) {
	var blocks []DASPBlock
	var segments [][]daspSegment
	var short, medium, long []int32
	for i := 0; i < m.Rows; i++ {
		switch Categorize(m.RowNNZ(i)) {
		case ShortRow:
			short = append(short, int32(i))
		case MediumRow:
			medium = append(medium, int32(i))
		default:
			long = append(long, int32(i))
		}
	}

	packGroup := func(rows []int32, cat RowCategory) {
		for start := 0; start < len(rows); start += DASPRowsPerBlock {
			end := start + DASPRowsPerBlock
			if end > len(rows) {
				end = len(rows)
			}
			blk := DASPBlock{Category: cat}
			maxSegs := 0
			for l := range blk.RowOf {
				blk.RowOf[l] = -1
			}
			for l, r := range rows[start:end] {
				blk.RowOf[l] = r
				maxSegs = max(maxSegs, daspRowSegs(m.RowNNZ(int(r))))
			}
			segs := make([]daspSegment, maxSegs)
			for l, r := range rows[start:end] {
				lo := m.RowPtr[r]
				for k := 0; k < m.RowNNZ(int(r)); k++ {
					segs[k/DASPSegWidth].Vals[l][k%DASPSegWidth] = m.Vals[lo+k]
					segs[k/DASPSegWidth].Cols[l][k%DASPSegWidth] = m.ColIdx[lo+k]
				}
			}
			blocks = append(blocks, blk)
			segments = append(segments, segs)
		}
	}
	packGroup(short, ShortRow)
	packGroup(medium, MediumRow)

	// Long rows: all 8 lanes carry disjoint chunks of one row.
	for _, r := range long {
		lo, n := m.RowPtr[r], m.RowNNZ(int(r))
		chunk := (n + DASPRowsPerBlock - 1) / DASPRowsPerBlock
		blk := DASPBlock{Category: LongRow}
		segs := make([]daspSegment, daspRowSegs(chunk))
		for l := 0; l < DASPRowsPerBlock; l++ {
			blk.RowOf[l] = r
			end := chunk
			if l*chunk+end > n {
				end = n - l*chunk
			}
			base := lo + l*chunk
			for k := 0; k < end; k++ {
				segs[k/DASPSegWidth].Vals[l][k%DASPSegWidth] = m.Vals[base+k]
				segs[k/DASPSegWidth].Cols[l][k%DASPSegWidth] = m.ColIdx[base+k]
			}
		}
		blocks = append(blocks, blk)
		segments = append(segments, segs)
	}
	return blocks, segments
}

// daspOracleSlabs flattens the oracle's segments the way the lazy slab
// build did: SegOff the cumulative segment count, APanels the row-major
// flatten of every segment's Vals, BCols the transposed (B-tile layout)
// flatten of every segment's Cols.
func daspOracleSlabs(segments [][]daspSegment) (segOff []int32, aPanels []float64, bCols []int32) {
	segOff = make([]int32, len(segments)+1)
	total := 0
	for bi, segs := range segments {
		segOff[bi] = int32(total)
		total += len(segs)
	}
	segOff[len(segments)] = int32(total)
	aPanels = make([]float64, total*segFloats)
	bCols = make([]int32, total*segFloats)
	for bi, segs := range segments {
		for si := range segs {
			off := (int(segOff[bi]) + si) * segFloats
			for l := 0; l < DASPRowsPerBlock; l++ {
				for k := 0; k < DASPSegWidth; k++ {
					aPanels[off+l*DASPSegWidth+k] = segs[si].Vals[l][k]
					bCols[off+k*DASPRowsPerBlock+l] = segs[si].Cols[l][k]
				}
			}
		}
	}
	return segOff, aPanels, bCols
}

// checkDASPOracle fails unless ToDASP(m) has the oracle's blocks and its
// slabs are the oracle's flatten bit for bit, with an equal SegOff.
func checkDASPOracle(t *testing.T, name string, m *CSR) {
	t.Helper()
	d := ToDASP(m)
	blocks, segments := daspOracle(m)
	segOff, aPanels, bCols := daspOracleSlabs(segments)
	if len(d.Blocks) != len(blocks) || len(d.SegOff) != len(segOff) ||
		len(d.APanels) != len(aPanels) || len(d.BCols) != len(bCols) {
		t.Fatalf("%s: %d blocks, %d offsets, slabs %d/%d; the oracle has %d, %d, %d/%d", name,
			len(d.Blocks), len(d.SegOff), len(d.APanels), len(d.BCols),
			len(blocks), len(segOff), len(aPanels), len(bCols))
	}
	for bi := range blocks {
		if d.Blocks[bi] != blocks[bi] {
			t.Fatalf("%s: block %d is %+v, the oracle's %+v", name, bi, d.Blocks[bi], blocks[bi])
		}
	}
	for i := range segOff {
		if d.SegOff[i] != segOff[i] {
			t.Fatalf("%s: SegOff[%d] = %d, the oracle's %d", name, i, d.SegOff[i], segOff[i])
		}
	}
	for i := range aPanels {
		if math.Float64bits(d.APanels[i]) != math.Float64bits(aPanels[i]) {
			t.Fatalf("%s: APanels[%d] = %v, the oracle's %v", name, i, d.APanels[i], aPanels[i])
		}
		if d.BCols[i] != bCols[i] {
			t.Fatalf("%s: BCols[%d] = %d, the oracle's %d", name, i, d.BCols[i], bCols[i])
		}
	}
}

// TestDASPPrestagedSlabs pins the slabs ToDASP writes to the flatten of the
// segment-building oracle, on a matrix with rows of all three categories
// and on the five Table 4 matrices.
func TestDASPPrestagedSlabs(t *testing.T) {
	checkDASPOracle(t, "mixed", mixedDASPCSR(t))
	if testing.Short() {
		t.Skip("full Table 4 synthesis in -short mode")
	}
	for _, ds := range Table4() {
		m, err := Synthesize(ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		checkDASPOracle(t, ds.Name, m)
	}
}

// TestDASPSlabsCoverAllCategories guards the fixture itself: the slab test
// is only meaningful if short, medium, and long blocks are all present.
func TestDASPSlabsCoverAllCategories(t *testing.T) {
	d := ToDASP(mixedDASPCSR(t))
	seen := map[RowCategory]bool{}
	for _, blk := range d.Blocks {
		seen[blk.Category] = true
	}
	for _, cat := range []RowCategory{ShortRow, MediumRow, LongRow} {
		if !seen[cat] {
			t.Fatalf("fixture produced no category-%d block", cat)
		}
	}
}

// daspSegmentSlots counts the lane slots of every segment d holds, read
// off the slabs.
func daspSegmentSlots(t testing.TB, d *DASP) int {
	t.Helper()
	slots := int(d.SegOff[len(d.Blocks)]) * segFloats
	if len(d.APanels) != slots || len(d.BCols) != slots {
		t.Fatalf("slabs hold %d/%d slots, SegOff counts %d", len(d.APanels), len(d.BCols), slots)
	}
	return slots
}

// TestDASPPaddedSlots pins DASPPaddedSlots, which ToDASP's PaddedSlots
// reads and the padding ablation calls without a layout, to the slots of
// the slabs ToDASP builds, on the five Table 4 matrices and a matrix
// with rows of all three categories.
func TestDASPPaddedSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 synthesis in -short mode")
	}
	check := func(name string, m *CSR) {
		t.Helper()
		d := ToDASP(m)
		if got, want := DASPPaddedSlots(m), daspSegmentSlots(t, d); got != want || d.PaddedSlots != want {
			t.Fatalf("%s: DASPPaddedSlots %d, PaddedSlots %d, slabs hold %d slots", name, got, d.PaddedSlots, want)
		}
	}
	check("mixed", mixedDASPCSR(t))
	for _, ds := range Table4() {
		m, err := Synthesize(ds.Name)
		if err != nil {
			t.Fatal(err)
		}
		check(ds.Name, m)
	}
}
