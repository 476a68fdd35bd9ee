package sparse

import "testing"

// fuzzCOO builds a COO matrix from fuzz input: rows in 1..40 and columns in
// 1..100 from the two size bytes (so a one-column matrix is reachable),
// then three bytes per entry — row, column, value — with coordinates taken
// modulo the size and values eighths in [-16, 16), zero included. It also
// returns the naive dense image: every entry summed into a row-major array
// in Add order, and which coordinates were added at all.
func fuzzCOO(rb, cb uint8, data []byte) (c *COO, dense []float64, present []bool) {
	rows, cols := int(rb)%40+1, int(cb)%100+1
	c = NewCOO(rows, cols)
	dense = make([]float64, rows*cols)
	present = make([]bool, rows*cols)
	for k := 0; k+2 < len(data); k += 3 {
		i, j := int(data[k])%rows, int(data[k+1])%cols
		v := float64(int8(data[k+2])) / 8
		c.Add(i, j, v)
		dense[i*cols+j] += v
		present[i*cols+j] = true
	}
	return c, dense, present
}

// addFuzzSeeds seeds a layout fuzzer with duplicates, empty rows, a
// one-column matrix, an empty matrix, and a row long enough to be a DASP
// long row (more than 64 nonzeros).
func addFuzzSeeds(f *testing.F) {
	f.Add(uint8(3), uint8(3), []byte{0, 0, 8, 0, 0, 16, 2, 1, 255, 0, 0, 1}) // duplicates summed
	f.Add(uint8(9), uint8(5), []byte{7, 4, 3, 7, 4, 0, 1, 2, 200})           // empty rows, explicit zero
	f.Add(uint8(11), uint8(0), []byte{0, 9, 1, 5, 9, 2, 11, 0, 3, 5, 1, 4})  // one column
	f.Add(uint8(0), uint8(99), []byte{})                                     // no entries
	long := []byte{}
	for j := 0; j < 80; j++ {
		long = append(long, 2, byte(j), byte(j+1))
	}
	long = append(long, 5, 3, 7, 5, 3, 9)
	f.Add(uint8(7), uint8(90), long)
}

// FuzzToCSR checks the counted CSR build: the result validates, stores
// exactly the distinct coordinates added, and each holds the sum of its
// duplicates in Add order.
func FuzzToCSR(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, rb, cb uint8, data []byte) {
		c, dense, present := fuzzCOO(rb, cb, data)
		m := c.ToCSR()
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		distinct := 0
		for _, p := range present {
			if p {
				distinct++
			}
		}
		if m.NNZ() != distinct {
			t.Fatalf("NNZ = %d, want %d distinct coordinates", m.NNZ(), distinct)
		}
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				at := i*m.Cols + int(m.ColIdx[k])
				if !present[at] || m.Vals[k] != dense[at] {
					t.Fatalf("(%d, %d) = %v, want %v (added: %v)", i, m.ColIdx[k], m.Vals[k], dense[at], present[at])
				}
			}
		}
	})
}

// FuzzToMBSR checks the blocked layout by its round trip: MBSR.ToCSR
// (which drops explicit zeros) reproduces the dense image.
func FuzzToMBSR(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, rb, cb uint8, data []byte) {
		c, dense, _ := fuzzCOO(rb, cb, data)
		b := ToMBSR(c.ToCSR())
		if b.BlockRows != (c.Rows+BlockSize-1)/BlockSize || b.BlockCols != (c.Cols+BlockSize-1)/BlockSize {
			t.Fatalf("%d×%d blocks for a %d×%d matrix", b.BlockRows, b.BlockCols, c.Rows, c.Cols)
		}
		r := b.ToCSR()
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.Rows != c.Rows || r.Cols != c.Cols {
			t.Fatalf("round trip is %d×%d, want %d×%d", r.Rows, r.Cols, c.Rows, c.Cols)
		}
		for i := 0; i < r.Rows; i++ {
			for j := 0; j < r.Cols; j++ {
				if got, want := r.At(i, j), dense[i*r.Cols+j]; got != want {
					t.Fatalf("round trip (%d, %d) = %v, want %v", i, j, got, want)
				}
			}
		}
	})
}

// FuzzToDASP checks the row-grouping layout: summing every lane slot of
// the slabs into the row its lane maps to (RowOf) rebuilds the dense image
// — padding slots carry zeros — the padded slot count covers every nonzero
// and counts the slots the slabs hold, and the slabs are the flatten of the
// segment-building oracle.
func FuzzToDASP(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, rb, cb uint8, data []byte) {
		c, dense, _ := fuzzCOO(rb, cb, data)
		m := c.ToCSR()
		d := ToDASP(m)
		if d.Rows != m.Rows || d.Cols != m.Cols || d.NNZ != m.NNZ() {
			t.Fatalf("DASP is %d×%d with %d nonzeros, want %d×%d with %d", d.Rows, d.Cols, d.NNZ, m.Rows, m.Cols, m.NNZ())
		}
		if d.NNZ > d.PaddedSlots {
			t.Fatalf("NNZ %d exceeds PaddedSlots %d", d.NNZ, d.PaddedSlots)
		}
		if slots := daspSegmentSlots(t, d); d.PaddedSlots != slots {
			t.Fatalf("PaddedSlots %d, the layout's slabs hold %d slots", d.PaddedSlots, slots)
		}
		got := make([]float64, len(dense))
		for bi, blk := range d.Blocks {
			for s := int(d.SegOff[bi]); s < int(d.SegOff[bi+1]); s++ {
				for l, r := range blk.RowOf {
					if r < 0 {
						continue
					}
					for k := 0; k < DASPSegWidth; k++ {
						col := d.BCols[s*segFloats+k*DASPRowsPerBlock+l]
						got[int(r)*d.Cols+int(col)] += d.APanels[s*segFloats+l*DASPSegWidth+k]
					}
				}
			}
		}
		for at := range dense {
			if got[at] != dense[at] {
				t.Fatalf("(%d, %d) = %v, want %v", at/d.Cols, at%d.Cols, got[at], dense[at])
			}
		}
		checkDASPOracle(t, "fuzz", m)
	})
}
