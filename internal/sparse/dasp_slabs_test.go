package sparse

import "testing"

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

// TestDASPPrestagedSlabs pins the prestaged operand slabs against the
// segment structure they were flattened from: SegOff is the exact cumulative
// segment count, APanels the row-major flatten of every segment's Vals, and
// BCols the transposed (B-tile layout) flatten of every segment's Cols.
func TestDASPPrestagedSlabs(t *testing.T) {
	d := ToDASP(mixedDASPCSR(t))
	if d.SegOff != nil || d.APanels != nil || d.BCols != nil {
		t.Fatal("ToDASP materialized slabs eagerly; they must be lazy (Prestage)")
	}
	d.Prestage()
	d.Prestage() // idempotent

	if len(d.SegOff) != len(d.Blocks)+1 {
		t.Fatalf("len(SegOff) = %d, want %d", len(d.SegOff), len(d.Blocks)+1)
	}
	total := 0
	for bi := range d.Blocks {
		if int(d.SegOff[bi]) != total {
			t.Fatalf("SegOff[%d] = %d, want %d", bi, d.SegOff[bi], total)
		}
		total += len(d.Blocks[bi].Segments)
	}
	if int(d.SegOff[len(d.Blocks)]) != total {
		t.Fatalf("SegOff tail = %d, want %d", d.SegOff[len(d.Blocks)], total)
	}
	if len(d.APanels) != total*segFloats || len(d.BCols) != total*segFloats {
		t.Fatalf("slab sizes %d/%d, want %d", len(d.APanels), len(d.BCols), total*segFloats)
	}

	for bi := range d.Blocks {
		base := int(d.SegOff[bi]) * segFloats
		for si := range d.Blocks[bi].Segments {
			seg := &d.Blocks[bi].Segments[si]
			off := base + si*segFloats
			for l := 0; l < DASPRowsPerBlock; l++ {
				for k := 0; k < DASPSegWidth; k++ {
					if got := d.APanels[off+l*DASPSegWidth+k]; got != seg.Vals[l][k] {
						t.Fatalf("block %d seg %d: APanels[l=%d,k=%d] = %v, want %v",
							bi, si, l, k, got, seg.Vals[l][k])
					}
					if got := d.BCols[off+k*DASPRowsPerBlock+l]; got != seg.Cols[l][k] {
						t.Fatalf("block %d seg %d: BCols[k=%d,l=%d] = %d, want %d",
							bi, si, k, l, got, seg.Cols[l][k])
					}
				}
			}
		}
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

// daspSegmentSlots counts the lane slots of every segment d holds.
func daspSegmentSlots(d *DASP) int {
	slots := 0
	for _, blk := range d.Blocks {
		slots += len(blk.Segments) * segFloats
	}
	return slots
}

// TestDASPPaddedSlots pins DASPPaddedSlots, which ToDASP's PaddedSlots
// reads and the padding ablation calls without a layout, to the slots of
// the segments ToDASP builds, on the five Table 4 matrices and a matrix
// with rows of all three categories.
func TestDASPPaddedSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 synthesis in -short mode")
	}
	check := func(name string, m *CSR) {
		t.Helper()
		d := ToDASP(m)
		if got, want := DASPPaddedSlots(m), daspSegmentSlots(d); got != want || d.PaddedSlots != want {
			t.Fatalf("%s: DASPPaddedSlots %d, PaddedSlots %d, segments hold %d slots", name, got, d.PaddedSlots, want)
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
