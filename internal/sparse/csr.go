// Package sparse provides the sparse-matrix formats the Cubie kernels use —
// CSR, COO, the mBSR blocked format of AmgT SpGEMM, and the DASP row-grouping
// layout — together with synthetic generators that reproduce the structural
// classes of the SuiteSparse matrices in the paper's Table 4.
package sparse

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row FP64 matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // length Rows+1
	ColIdx     []int32   // length NNZ, ascending within each row
	Vals       []float64 // length NNZ
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RowNNZ returns the number of nonzeros in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Validate checks structural invariants: monotone row pointers, in-range and
// sorted column indices.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.ColIdx) {
		return fmt.Errorf("sparse: RowPtr endpoints %d..%d, want 0..%d",
			m.RowPtr[0], m.RowPtr[m.Rows], len(m.ColIdx))
	}
	if len(m.Vals) != len(m.ColIdx) {
		return fmt.Errorf("sparse: %d values for %d indices", len(m.Vals), len(m.ColIdx))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := int(m.ColIdx[k])
			if c < 0 || c >= m.Cols {
				return fmt.Errorf("sparse: row %d col %d out of range", i, c)
			}
			if k > m.RowPtr[i] && m.ColIdx[k] <= m.ColIdx[k-1] {
				return fmt.Errorf("sparse: row %d columns not strictly ascending", i)
			}
		}
	}
	return nil
}

// At returns element (i, j), or 0 if it is not stored.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.Search(hi-lo, func(k int) bool { return m.ColIdx[lo+k] >= int32(j) })
	if k < hi && m.ColIdx[k] == int32(j) {
		return m.Vals[k]
	}
	return 0
}

// COO is a coordinate-format builder for sparse matrices. It stores its
// entries in Add order in chunks that double in size up to cooMaxChunk, so
// Add never copies an entry it already stored.
type COO struct {
	Rows, Cols int
	chunks     [][]cooEntry // filled chunks, in Add order
	tail       []cooEntry   // the chunk Add fills
}

type cooEntry struct {
	i, j int32
	v    float64
}

// Chunk sizes in entries: the first chunk and the cap the doubling stops at
// (1 MiB of 16-byte entries).
const (
	cooFirstChunk = 64
	cooMaxChunk   = 1 << 16
)

// NewCOO returns an empty builder for a Rows×Cols matrix.
func NewCOO(rows, cols int) *COO { return &COO{Rows: rows, Cols: cols} }

// Add appends entry (i, j, v). Duplicate coordinates are summed by ToCSR.
func (c *COO) Add(i, j int, v float64) {
	if len(c.tail) == cap(c.tail) {
		c.grow()
	}
	c.tail = append(c.tail, cooEntry{int32(i), int32(j), v})
}

// grow retires the full tail chunk and starts one twice its size.
func (c *COO) grow() {
	if c.tail != nil {
		c.chunks = append(c.chunks, c.tail)
	}
	c.tail = make([]cooEntry, 0, min(max(2*cap(c.tail), cooFirstChunk), cooMaxChunk))
}

// chunk returns the k-th stored chunk in Add order; k == len(c.chunks) is
// the tail.
func (c *COO) chunk(k int) []cooEntry {
	if k < len(c.chunks) {
		return c.chunks[k]
	}
	return c.tail
}

// ToCSR converts to CSR, sorting each row by column and summing duplicates,
// in time linear in the entries. It counts entries per row into RowPtr,
// scatters (col, val) in Add order straight to their row offsets, then
// compacts each row through a per-column marker: a duplicate adds into its
// column's first occurrence, so duplicates sum in Add order, ((a+b)+c).
// A row is sorted only if its distinct columns are not already ascending.
// The outputs keep the capacity of the staged entries.
func (c *COO) ToCSR() *CSR {
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	for k := 0; k <= len(c.chunks); k++ {
		for _, e := range c.chunk(k) {
			m.RowPtr[e.i+1]++
		}
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	nnz := m.RowPtr[c.Rows]
	if nnz == 0 {
		return m
	}
	// Scatter with RowPtr[i] as row i's cursor: it ends at row i+1's start.
	colIdx := make([]int32, nnz)
	vals := make([]float64, nnz)
	for k := 0; k <= len(c.chunks); k++ {
		for _, e := range c.chunk(k) {
			p := m.RowPtr[e.i]
			colIdx[p], vals[p] = e.j, e.v
			m.RowPtr[e.i] = p + 1
		}
	}
	// Compact row by row; first[j] is the output slot of column j's first
	// occurrence, which belongs to the current row once it is ≥ its start.
	first := make([]int, c.Cols)
	for j := range first {
		first[j] = -1
	}
	out, in := 0, 0
	for i := 0; i < c.Rows; i++ {
		start, end := out, m.RowPtr[i]
		sorted := true
		for ; in < end; in++ {
			j := colIdx[in]
			if f := first[j]; f >= start {
				vals[f] += vals[in]
				continue
			}
			if out > start && j < colIdx[out-1] {
				sorted = false
			}
			first[j] = out
			colIdx[out], vals[out] = j, vals[in]
			out++
		}
		if !sorted {
			sortRow(colIdx[start:out], vals[start:out])
		}
		m.RowPtr[i] = start
	}
	m.RowPtr[c.Rows] = out
	m.ColIdx, m.Vals = colIdx[:out], vals[:out]
	return m
}

// sortRow sorts one row's distinct columns ascending, carrying their
// values: insertion sort up to 256 entries, sort.Sort above.
func sortRow(cols []int32, vals []float64) {
	if len(cols) > 256 {
		sort.Sort(rowSorter{cols, vals})
		return
	}
	for a := 1; a < len(cols); a++ {
		j, v := cols[a], vals[a]
		b := a
		for ; b > 0 && cols[b-1] > j; b-- {
			cols[b], vals[b] = cols[b-1], vals[b-1]
		}
		cols[b], vals[b] = j, v
	}
}

// rowSorter orders a row's (column, value) pairs by column.
type rowSorter struct {
	cols []int32
	vals []float64
}

func (s rowSorter) Len() int           { return len(s.cols) }
func (s rowSorter) Less(a, b int) bool { return s.cols[a] < s.cols[b] }
func (s rowSorter) Swap(a, b int) {
	s.cols[a], s.cols[b] = s.cols[b], s.cols[a]
	s.vals[a], s.vals[b] = s.vals[b], s.vals[a]
}

// Transpose returns mᵀ in CSR form.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int, m.Cols+1)}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < t.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	t.ColIdx = make([]int32, m.NNZ())
	t.Vals = make([]float64, m.NNZ())
	next := append([]int(nil), t.RowPtr[:t.Rows]...)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			next[j]++
			t.ColIdx[p] = int32(i)
			t.Vals[p] = m.Vals[k]
		}
	}
	return t
}
