// Package mtx reads and writes Matrix Market exchange files — the format
// the SuiteSparse collection distributes (the paper's Table 3/4 inputs).
// The reproduction synthesizes its datasets, but users with access to the
// real files can load them through this package and run the sparse and
// graph workloads' building blocks on genuine inputs.
//
// Supported: `%%MatrixMarket matrix coordinate real|integer|pattern
// general|symmetric|skew-symmetric`. Array (dense) and complex files are
// rejected with a clear error.
package mtx

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// header describes a parsed Matrix Market banner.
type header struct {
	object   string // "matrix"
	format   string // "coordinate"
	field    string // "real", "integer", "pattern"
	symmetry string // "general", "symmetric", "skew-symmetric"
}

// MaxDimension bounds the accepted row/column counts: a coordinate file
// claiming enormous dimensions with few entries would otherwise force an
// O(rows) allocation from attacker-controlled input. Use ReadLimited for
// genuinely larger matrices.
const MaxDimension = 1 << 28

// Read parses a Matrix Market coordinate stream into CSR, rejecting
// dimensions above MaxDimension.
func Read(r io.Reader) (*sparse.CSR, error) {
	return ReadLimited(r, MaxDimension)
}

// ReadLimited parses a Matrix Market coordinate stream with a caller-chosen
// dimension bound.
func ReadLimited(r io.Reader, maxDim int) (*sparse.CSR, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return nil, fmt.Errorf("mtx: empty input: %w", err)
	}
	h, err := parseBanner(line)
	if err != nil {
		return nil, err
	}

	// Skip comments, find the size line.
	var rows, cols, nnz int
	for {
		line, err = br.ReadString('\n')
		if line == "" && err != nil {
			return nil, fmt.Errorf("mtx: missing size line: %w", err)
		}
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "%") {
			continue
		}
		if _, serr := fmt.Sscan(s, &rows, &cols, &nnz); serr != nil {
			return nil, fmt.Errorf("mtx: bad size line %q: %w", s, serr)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("mtx: negative dimensions %d %d %d", rows, cols, nnz)
	}
	if rows > maxDim || cols > maxDim {
		return nil, fmt.Errorf("mtx: dimensions %dx%d exceed the limit %d", rows, cols, maxDim)
	}
	if h.symmetry != "general" && rows != cols {
		// The mirrored entry (j, i) would fall outside a non-square matrix.
		return nil, fmt.Errorf("mtx: %s matrix is %dx%d, not square", h.symmetry, rows, cols)
	}

	coo := sparse.NewCOO(rows, cols)
	read := 0
	for read < nnz {
		line, err = br.ReadString('\n')
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "%") {
			if err != nil {
				return nil, fmt.Errorf("mtx: expected %d entries, got %d", nnz, read)
			}
			continue
		}
		fields := strings.Fields(s)
		want := 3
		if h.field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("mtx: entry %d malformed: %q", read+1, s)
		}
		i, e1 := strconv.Atoi(fields[0])
		j, e2 := strconv.Atoi(fields[1])
		if e1 != nil || e2 != nil {
			return nil, fmt.Errorf("mtx: entry %d has bad indices: %q", read+1, s)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mtx: entry %d out of range: %q", read+1, s)
		}
		v := 1.0
		if h.field != "pattern" {
			v, e1 = strconv.ParseFloat(fields[2], 64)
			if e1 != nil {
				return nil, fmt.Errorf("mtx: entry %d has bad value: %q", read+1, s)
			}
		}
		coo.Add(i-1, j-1, v)
		switch h.symmetry {
		case "symmetric":
			if i != j {
				coo.Add(j-1, i-1, v)
			}
		case "skew-symmetric":
			if i != j {
				coo.Add(j-1, i-1, -v)
			}
		}
		read++
		if err != nil {
			break
		}
	}
	if read < nnz {
		return nil, fmt.Errorf("mtx: expected %d entries, got %d", nnz, read)
	}
	return coo.ToCSR(), nil
}

func parseBanner(line string) (header, error) {
	var h header
	s := strings.TrimSpace(line)
	if !strings.HasPrefix(s, "%%MatrixMarket") {
		return h, fmt.Errorf("mtx: missing %%%%MatrixMarket banner (got %q)", s)
	}
	fields := strings.Fields(strings.ToLower(s))
	if len(fields) < 5 {
		return h, fmt.Errorf("mtx: short banner %q", s)
	}
	h.object, h.format, h.field, h.symmetry = fields[1], fields[2], fields[3], fields[4]
	if h.object != "matrix" {
		return h, fmt.Errorf("mtx: unsupported object %q", h.object)
	}
	if h.format != "coordinate" {
		return h, fmt.Errorf("mtx: unsupported format %q (only coordinate)", h.format)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("mtx: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return h, fmt.Errorf("mtx: unsupported symmetry %q", h.symmetry)
	}
	return h, nil
}

// Write emits m as a general real coordinate Matrix Market file.
func Write(w io.Writer, m *sparse.CSR) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n",
				i+1, m.ColIdx[k]+1, m.Vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
