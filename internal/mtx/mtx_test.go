package mtx

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lcg"
	"repro/internal/sparse"
)

func TestReadGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 1.5
2 3 -2
3 4 0.25
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.NNZ() != 3 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	if m.At(0, 0) != 1.5 || m.At(1, 2) != -2 || m.At(2, 3) != 0.25 {
		t.Fatal("values misplaced")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2
2 1 -1
3 2 4
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 { // diagonal stays single, off-diagonals mirrored
		t.Fatalf("nnz = %d, want 5", m.NNZ())
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 || m.At(1, 2) != 4 || m.At(2, 1) != 4 {
		t.Fatal("symmetrization wrong")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != -3 {
		t.Fatal("skew symmetrization wrong")
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Fatal("pattern entries should read as 1")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no banner":        "3 3 1\n1 1 1\n",
		"dense rejected":   "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"complex rejected": "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"bad symmetry":     "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"short entry":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"out of range":     "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"zero index":       "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
		"truncated":        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"bad value":        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 xyz\n",
		"bad size":         "%%MatrixMarket matrix coordinate real general\nfoo bar baz\n",
		"huge dims":        "%%MatrixMarket matrix coordinate real general\n999999999 999999999 1\n1 1 1\n",
		"symmetric 7x1":    "%%MatrixMarket matrix coordinate real symmetric\n7 1 1\n2 1 0\n",
		"skew 1x2":         "%%MatrixMarket matrix coordinate real skew-symmetric\n1 2 1\n1 2 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := lcg.New(7)
	coo := sparse.NewCOO(50, 40)
	for k := 0; k < 300; k++ {
		coo.Add(g.Intn(50), g.Intn(40), g.Symmetric())
	}
	m := coo.ToCSR()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
		t.Fatalf("round trip shape changed")
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.ColIdx[k])
			if back.At(i, j) != m.Vals[k] {
				t.Fatalf("value changed at (%d,%d): %v vs %v",
					i, j, back.At(i, j), m.Vals[k])
			}
		}
	}
}

func TestRoundTripSynthesizedTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("large round trip in -short mode")
	}
	m, err := sparse.Synthesize("spmsrts")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() || back.Rows != m.Rows {
		t.Fatalf("spmsrts round trip changed shape: %d/%d vs %d/%d",
			back.Rows, back.NNZ(), m.Rows, m.NNZ())
	}
	// Exact value preservation via %.17g.
	for k := 0; k < m.NNZ(); k += 9973 {
		if m.Vals[k] != back.Vals[k] {
			t.Fatalf("value %d changed: %v vs %v", k, m.Vals[k], back.Vals[k])
		}
	}
}

func TestNoTrailingNewlineHandled(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 2.5 {
		t.Fatal("final entry without newline lost")
	}
}
