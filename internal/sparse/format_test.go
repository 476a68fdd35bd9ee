package sparse

import (
	"testing"

	"repro/internal/lcg"
)

func randomCSR(t *testing.T, rows, cols, nnz int, seed int64) *CSR {
	t.Helper()
	g := lcg.New(seed)
	coo := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		coo.Add(g.Intn(rows), g.Intn(cols), g.Symmetric())
	}
	m := coo.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMBSRRoundTrip(t *testing.T) {
	m := randomCSR(t, 30, 30, 120, 9)
	b := ToMBSR(m)
	back := b.ToCSR()
	if back.Rows != m.Rows || back.Cols != m.Cols {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if back.At(i, j) != m.At(i, j) {
				t.Fatalf("round trip changed (%d,%d): %v vs %v",
					i, j, back.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestMBSRBlockStructure(t *testing.T) {
	// One dense 4×4 block at block (1,2).
	coo := NewCOO(8, 16)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			coo.Add(4+i, 8+j, float64(i*4+j+1))
		}
	}
	b := ToMBSR(coo.ToCSR())
	if b.BlockNNZ() != 1 {
		t.Fatalf("BlockNNZ = %d, want 1", b.BlockNNZ())
	}
	blk := b.Blocks[0]
	if blk.BlockCol != 2 {
		t.Fatalf("block col = %d, want 2", blk.BlockCol)
	}
	if blk.Vals[0] != 1 || blk.Vals[15] != 16 {
		t.Fatal("block payload misplaced")
	}
	if fr := b.FillRatio(16); fr != 1 {
		t.Fatalf("fill ratio = %v, want 1", fr)
	}
}

func TestMBSRFillRatioPartial(t *testing.T) {
	coo := NewCOO(4, 4)
	coo.Add(0, 0, 1) // one nonzero in one 4×4 block
	b := ToMBSR(coo.ToCSR())
	if fr := b.FillRatio(1); fr != 1.0/16 {
		t.Fatalf("fill ratio = %v, want 1/16", fr)
	}
}

func TestMBSRBlockColsSorted(t *testing.T) {
	m := randomCSR(t, 64, 64, 400, 17)
	b := ToMBSR(m)
	for i := 0; i < b.BlockRows; i++ {
		for p := b.RowPtr[i] + 1; p < b.RowPtr[i+1]; p++ {
			if b.Blocks[p].BlockCol <= b.Blocks[p-1].BlockCol {
				t.Fatalf("block row %d not sorted", i)
			}
		}
	}
}

func TestCategorize(t *testing.T) {
	cases := []struct {
		nnz  int
		want RowCategory
	}{
		{0, ShortRow}, {4, ShortRow}, {5, MediumRow}, {64, MediumRow},
		{65, LongRow}, {1000, LongRow},
	}
	for _, c := range cases {
		if got := Categorize(c.nnz); got != c.want {
			t.Errorf("Categorize(%d) = %v, want %v", c.nnz, got, c.want)
		}
	}
}

func TestToDASPCoversAllNonzeros(t *testing.T) {
	m := randomCSR(t, 100, 100, 900, 23)
	d := ToDASP(m)
	if d.NNZ != m.NNZ() {
		t.Fatalf("DASP NNZ %d, want %d", d.NNZ, m.NNZ())
	}
	// Reconstruct y = A·1 via DASP and compare to CSR.
	ones := make([]float64, m.Cols)
	for i := range ones {
		ones[i] = 1
	}
	got := make([]float64, m.Rows)
	for bi, blk := range d.Blocks {
		for s := int(d.SegOff[bi]); s < int(d.SegOff[bi+1]); s++ {
			for l := 0; l < DASPRowsPerBlock; l++ {
				r := blk.RowOf[l]
				if r < 0 {
					continue
				}
				for k := 0; k < DASPSegWidth; k++ {
					got[r] += d.APanels[s*segFloats+l*DASPSegWidth+k] * ones[d.BCols[s*segFloats+k*DASPRowsPerBlock+l]]
				}
			}
		}
	}
	for i := 0; i < m.Rows; i++ {
		var want float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			want += m.Vals[k]
		}
		if diff := got[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %d: DASP sum %v, CSR sum %v", i, got[i], want)
		}
	}
}

func TestDASPLongRowSplit(t *testing.T) {
	// One row with 100 nonzeros must be classified long and split over lanes.
	coo := NewCOO(2, 128)
	for j := 0; j < 100; j++ {
		coo.Add(0, j, 1)
	}
	coo.Add(1, 0, 5)
	d := ToDASP(coo.ToCSR())
	foundLong := false
	for _, blk := range d.Blocks {
		if blk.Category == LongRow {
			foundLong = true
			for l := 0; l < DASPRowsPerBlock; l++ {
				if blk.RowOf[l] != 0 {
					t.Fatal("long block lanes should all map to row 0")
				}
			}
		}
	}
	if !foundLong {
		t.Fatal("no long block generated")
	}
}

func TestDASPUtilizationBounds(t *testing.T) {
	m := randomCSR(t, 200, 200, 2000, 31)
	d := ToDASP(m)
	u := DASPInputUtilization(d.NNZ, d.PaddedSlots)
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v out of (0,1]", u)
	}
}

func TestDASPEmptyMatrix(t *testing.T) {
	m := NewCOO(10, 10).ToCSR()
	d := ToDASP(m)
	if d.NNZ != 0 {
		t.Fatal("empty matrix should have 0 nnz")
	}
	if u := DASPInputUtilization(d.NNZ, d.PaddedSlots); u < 0 || u > 1 {
		t.Fatalf("utilization %v invalid for empty matrix", u)
	}
}
