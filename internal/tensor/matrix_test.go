package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero", i)
		}
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative shape")
		}
	}()
	NewMatrix(-1, 2)
}

func TestAtSetAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	m.Add(1, 2, 2.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("after Add, At(1,2) = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("unrelated element modified")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows layout wrong: %v", m.Data)
	}
	if e := FromRows(nil); e.Rows != 0 || e.Cols != 0 {
		t.Fatal("empty FromRows not 0x0")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowIsView(t *testing.T) {
	m := NewMatrix(2, 2)
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row did not return a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Clone not equal to original")
	}
}

func TestEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2}})
	c := FromRows([][]float64{{1, 3}})
	d := FromRows([][]float64{{1}, {2}})
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal misbehaves")
	}
}

func TestZero(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero left nonzero element")
		}
	}
}

func TestTilePadding(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 9)
	m.Tile(dst, 1, 1, 3, 3)
	want := []float64{4, 0, 0, 0, 0, 0, 0, 0, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Tile pad: got %v want %v", dst, want)
		}
	}
}

func TestTileInterior(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	dst := make([]float64, 4)
	m.Tile(dst, 0, 1, 2, 2)
	want := []float64{2, 3, 5, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Tile interior: got %v want %v", dst, want)
		}
	}
}

func TestSetAddTileRoundTrip(t *testing.T) {
	m := NewMatrix(4, 4)
	tile := []float64{1, 2, 3, 4}
	m.SetTile(tile, 1, 1, 2, 2)
	if m.At(2, 2) != 4 || m.At(1, 1) != 1 {
		t.Fatal("SetTile misplaced values")
	}
	m.AddTile(tile, 1, 1, 2, 2)
	if m.At(2, 2) != 8 {
		t.Fatal("AddTile did not accumulate")
	}
	// Out-of-range writes silently dropped.
	m.SetTile(tile, 3, 3, 2, 2)
	if m.At(3, 3) != 1 {
		t.Fatal("in-range corner not written")
	}
}

func TestTileRoundTripProperty(t *testing.T) {
	f := func(seed uint8) bool {
		m := NewMatrix(8, 8)
		for i := range m.Data {
			m.Data[i] = float64(int(seed)+i%7) - 3
		}
		buf := make([]float64, 16)
		m.Tile(buf, 4, 4, 4, 4)
		n := NewMatrix(8, 8)
		n.SetTile(buf, 4, 4, 4, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if n.At(4+i, 4+j) != m.At(4+i, 4+j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVector(t *testing.T) {
	v := NewVector(3)
	if v.Len() != 3 {
		t.Fatal("bad length")
	}
	v.Data[1] = 2
	c := v.Clone()
	c.Data[1] = 5
	if v.Data[1] != 2 {
		t.Fatal("Vector Clone shares storage")
	}
	if !v.Equal(v.Clone()) || v.Equal(c) || v.Equal(NewVector(2)) {
		t.Fatal("Vector Equal misbehaves")
	}
}

func TestComplexArray(t *testing.T) {
	c := NewComplexArray(4)
	if c.Len() != 4 {
		t.Fatal("bad length")
	}
	c.Re[0], c.Im[0] = 1, -1
	d := c.Clone()
	d.Re[0] = 7
	if c.Re[0] != 1 {
		t.Fatal("ComplexArray Clone shares storage")
	}
}

func TestTileNegativeOrigin(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 9)
	m.Tile(dst, -1, -1, 3, 3)
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("negative-origin Tile: got %v want %v", dst, want)
		}
	}
	m.AddTile([]float64{9, 9, 9, 9}, -1, -1, 2, 2)
	if m.At(0, 0) != 10 {
		t.Fatal("AddTile negative origin wrong")
	}
	m.SetTile([]float64{7, 7, 7, 7}, -1, -1, 2, 2)
	if m.At(0, 0) != 7 {
		t.Fatal("SetTile negative origin wrong")
	}
}

// TestPackAPanelMatchesTile pins PackAPanel (interior fast path and the edge
// slow path) to a per-tile Tile loop, including negative and overhanging
// origins that exercise the zero-fill.
func TestPackAPanelMatchesTile(t *testing.T) {
	m := NewMatrix(11, 17)
	for i := range m.Data {
		m.Data[i] = float64(i%13) - 6
	}
	const kTiles = 3
	got := make([]float64, kTiles*panelM*panelK)
	want := make([]float64, kTiles*panelM*panelK)
	for _, origin := range [][2]int{{0, 0}, {2, 3}, {3, 17 - 2*panelK}, {-1, -2}, {8, 12}} {
		r0, c0 := origin[0], origin[1]
		m.PackAPanel(got, r0, c0, kTiles)
		for tt := 0; tt < kTiles; tt++ {
			m.Tile(want[tt*panelM*panelK:(tt+1)*panelM*panelK], r0, c0+tt*panelK, panelM, panelK)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("origin (%d,%d): element %d: %v != %v", r0, c0, i, got[i], want[i])
			}
		}
	}
}

// TestPackBPanelMatchesTile pins PackBPanel to a per-tile Tile loop the same
// way, covering the interior straight-copy path and the padded edges.
func TestPackBPanelMatchesTile(t *testing.T) {
	m := NewMatrix(19, 10)
	for i := range m.Data {
		m.Data[i] = float64(i%11) - 5
	}
	const kTiles = 3
	got := make([]float64, kTiles*panelK*panelN)
	want := make([]float64, kTiles*panelK*panelN)
	for _, origin := range [][2]int{{0, 0}, {4, 2}, {19 - 2*panelK, 1}, {-2, -1}, {14, 6}} {
		r0, c0 := origin[0], origin[1]
		m.PackBPanel(got, r0, c0, kTiles)
		for tt := 0; tt < kTiles; tt++ {
			m.Tile(want[tt*panelK*panelN:(tt+1)*panelK*panelN], r0+tt*panelK, c0, panelK, panelN)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("origin (%d,%d): element %d: %v != %v", r0, c0, i, got[i], want[i])
			}
		}
	}
}

// TestPackPanelsMatchesStaging pins the whole-operand packers to one
// PackAPanel / PackBPanel call per row or column tile, for interior and
// ragged-edge shapes, into dirty destination buffers.
func TestPackPanelsMatchesStaging(t *testing.T) {
	for _, sh := range []struct{ rows, cols int }{{64, 64}, {61, 53}, {8, 4}, {5, 3}, {16, 128}} {
		m := NewMatrix(sh.rows, sh.cols)
		for i := range m.Data {
			m.Data[i] = float64(i%29) - 14.5
		}
		kTiles := (sh.cols + panelK - 1) / panelK
		aStride, bStride := kTiles*panelM*panelK, kTiles*panelK*panelN
		rowTiles := (sh.rows + panelM - 1) / panelM
		colTiles := (sh.cols + panelN - 1) / panelN

		wantA := make([]float64, rowTiles*aStride)
		for ti := 0; ti < rowTiles; ti++ {
			m.PackAPanel(wantA[ti*aStride:], ti*panelM, 0, kTiles)
		}
		wantB := make([]float64, colTiles*bStride)
		for tj := 0; tj < colTiles; tj++ {
			m.PackBPanel(wantB[tj*bStride:], 0, tj*panelN, kTiles)
		}
		for _, c := range []struct {
			name string
			pack func([]float64, int)
			want []float64
		}{{"A", m.PackAPanels, wantA}, {"B", m.PackBPanels, wantB}} {
			got := make([]float64, len(c.want))
			for i := range got {
				got[i] = 99 // the packer must overwrite every element
			}
			c.pack(got, kTiles)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("%dx%d %s: [%d] = %v, want %v", sh.rows, sh.cols, c.name, i, got[i], c.want[i])
				}
			}
		}
	}
}

// TestPackPanelShortDstPanics pins the destination-length guards.
func TestPackPanelShortDstPanics(t *testing.T) {
	m := NewMatrix(8, 8)
	short := make([]float64, panelM*panelK) // one tile, two requested
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short PackAPanel destination")
		}
	}()
	m.PackAPanel(short, 0, 0, 2)
}

// TestSetTileSum pins the fused epilogue: in-range elements get a[i]+b[i] in
// one add, out-of-range writes are dropped.
func TestSetTileSum(t *testing.T) {
	m := NewMatrix(3, 3)
	a := []float64{1, 2, 3, 4}
	b := []float64{10, 20, 30, 40}
	m.SetTileSum(a, b, 2, 2, 2, 2) // only (2,2) in range
	if m.At(2, 2) != 11 {
		t.Fatalf("SetTileSum corner = %v, want 11", m.At(2, 2))
	}
	if m.At(0, 0) != 0 || m.At(2, 1) != 0 {
		t.Fatal("SetTileSum wrote outside the tile")
	}
	m.SetTileSum(a, b, 0, 0, 2, 2)
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for k, ij := range want {
		if got := m.At(ij[0], ij[1]); got != a[k]+b[k] {
			t.Fatalf("SetTileSum (%d,%d) = %v, want %v", ij[0], ij[1], got, a[k]+b[k])
		}
	}
}
