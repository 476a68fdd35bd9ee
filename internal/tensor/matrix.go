// Package tensor provides the dense FP64 matrix, vector, and tile types that
// the Cubie kernels operate on. Matrices are stored row-major in a single
// contiguous slice, matching the global-memory layout assumed by the MMA
// fragment loaders in package mmu.
package tensor

import "fmt"

// Matrix is a dense row-major FP64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports whether m and n have the same shape and identical elements
// (exact bit comparison; used to verify TC ≡ CC).
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != n.Data[i] {
			return false
		}
	}
	return true
}

// Tile copies the r0..r0+h, c0..c0+w submatrix into dst (row-major, w stride).
// Out-of-range elements are zero-filled, matching how kernels pad partial
// tiles before feeding them to fixed-shape MMA fragments.
func (m *Matrix) Tile(dst []float64, r0, c0, h, w int) {
	if len(dst) < h*w {
		panic("tensor: Tile destination too small")
	}
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			r, c := r0+i, c0+j
			if r >= 0 && r < m.Rows && c >= 0 && c < m.Cols {
				dst[i*w+j] = m.Data[r*m.Cols+c]
			} else {
				dst[i*w+j] = 0
			}
		}
	}
}

// AddTile accumulates the h×w tile src (row-major, stride w) into the
// submatrix at (r0, c0), skipping out-of-range elements.
func (m *Matrix) AddTile(src []float64, r0, c0, h, w int) {
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			r, c := r0+i, c0+j
			if r >= 0 && r < m.Rows && c >= 0 && c < m.Cols {
				m.Data[r*m.Cols+c] += src[i*w+j]
			}
		}
	}
}

// SetTile overwrites the h×w submatrix at (r0, c0) from src, skipping
// out-of-range elements.
func (m *Matrix) SetTile(src []float64, r0, c0, h, w int) {
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			r, c := r0+i, c0+j
			if r >= 0 && r < m.Rows && c >= 0 && c < m.Cols {
				m.Data[r*m.Cols+c] = src[i*w+j]
			}
		}
	}
}

// SetTileSum overwrites the h×w submatrix at (r0, c0) with the element-wise
// sum a[i]+b[i] of two row-major tiles, skipping out-of-range elements. It
// is the fused epilogue of double-accumulator MMA sweeps: the caller keeps
// the two-accumulator rounding behaviour (one add per element, even chain
// plus odd chain) without a separate summing pass and staging buffer.
func (m *Matrix) SetTileSum(a, b []float64, r0, c0, h, w int) {
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			r, c := r0+i, c0+j
			if r >= 0 && r < m.Rows && c >= 0 && c < m.Cols {
				m.Data[r*m.Cols+c] = a[i*w+j] + b[i*w+j]
			}
		}
	}
}

// MMA panel tile shapes (mirrors mmu.M/K/N without importing mmu: tensor is
// below mmu in the layer map).
const (
	panelM = 8 // rows of an A panel tile and a C tile
	panelK = 4 // cols of an A tile, rows of a B tile
	panelN = 8 // cols of a B tile and a C tile
)

// PackARows packs the leading 8 rows of a strided row-major source into
// kTiles consecutive row-major 8×4 MMA A tiles: tile t covers source columns
// 4t..4t+3. It is the one stride-aware bulk A-pack in the tree — the
// PackAPanel interior fast path, mmu.PackA, and the packed-panel cache all
// route through it. The 4-wide array copies compile to register moves rather
// than runtime.memmove calls (the per-row copy() loops it replaced spent
// ~11% of the numeric-phase profile in memmove dispatch). src must cover
// (8-1)·stride + 4·kTiles elements; the array conversions panic otherwise.
func PackARows(dst, src []float64, stride, kTiles int) {
	for r := 0; r < panelM; r++ {
		srow := src[r*stride:]
		drow := dst[r*panelK:]
		for t := 0; t < kTiles; t++ {
			*(*[panelK]float64)(drow[t*panelM*panelK:]) = *(*[panelK]float64)(srow[t*panelK:])
		}
	}
}

// PackBRows packs rows consecutive 8-wide rows of a strided row-major source
// into dst back to back — the B-operand (and any full-width row panel) bulk
// pack. rows is typically 4·kTiles. Like PackARows the 8-wide array copies
// stay out of runtime.memmove. src must cover (rows-1)·stride + 8 elements.
func PackBRows(dst, src []float64, stride, rows int) {
	for r := 0; r < rows; r++ {
		*(*[panelN]float64)(dst[r*panelN:]) = *(*[panelN]float64)(src[r*stride:])
	}
}

// Gather4 sets dst[i] = src[idx[i]] for every i, 4-wide unrolled so the
// compiler hoists the dst/idx bounds checks out of the unrolled body — the
// SpMV B-operand gather (prestaged flat column indices → packed 4×8 tiles)
// runs through it on every apply. len(idx) must be at least len(dst); the
// indices must be valid for src (the DASP builder guarantees both).
func Gather4(dst, src []float64, idx []int32) {
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

// Pack4Stride copies rows groups of 4 contiguous floats from a strided
// source into a strided destination: group r moves from src[r·srcStride:]
// to dst[r·dstStride:]. Like PackARows, the fixed-size array assignments
// compile to register moves rather than runtime.memmove calls. It is the
// strided 4-wide staging primitive of the sparse prestage builders (mBSR
// 4×4 block rows into paired MMA operand slabs, DASP segment lanes into
// prepacked A panels). Both slices must cover (rows-1)·stride + 4 elements.
func Pack4Stride(dst []float64, dstStride int, src []float64, srcStride int, rows int) {
	for r := 0; r < rows; r++ {
		*(*[panelK]float64)(dst[r*dstStride:]) = *(*[panelK]float64)(src[r*srcStride:])
	}
}

// PackAPanel packs the 8×(4·kTiles) row-panel whose top-left corner is
// (r0, c0) into dst as kTiles consecutive row-major 8×4 MMA A tiles: tile t
// covers columns c0+4t … c0+4t+3. Out-of-range elements are zero-filled,
// matching Tile's padding of partial tiles. Packing once per row-tile and
// sweeping the panel with mmu.DMMAPanel replaces the per-k-step Tile
// re-gathers of the tile-at-a-time kernels (BLIS-style operand packing).
func (m *Matrix) PackAPanel(dst []float64, r0, c0, kTiles int) {
	if len(dst) < kTiles*panelM*panelK {
		panic("tensor: PackAPanel destination too small")
	}
	if r0 >= 0 && r0+panelM <= m.Rows && c0 >= 0 && c0+kTiles*panelK <= m.Cols {
		// Fast path: fully interior panel, one bulk stride-aware pack.
		PackARows(dst, m.Data[r0*m.Cols+c0:], m.Cols, kTiles)
		return
	}
	for t := 0; t < kTiles; t++ {
		m.Tile(dst[t*panelM*panelK:(t+1)*panelM*panelK], r0, c0+t*panelK, panelM, panelK)
	}
}

// PackBPanel packs the (4·kTiles)×8 column-panel whose top-left corner is
// (r0, c0) into dst as kTiles consecutive row-major 4×8 MMA B tiles: tile t
// covers rows r0+4t … r0+4t+3. Out-of-range elements are zero-filled.
func (m *Matrix) PackBPanel(dst []float64, r0, c0, kTiles int) {
	if len(dst) < kTiles*panelK*panelN {
		panic("tensor: PackBPanel destination too small")
	}
	if r0 >= 0 && r0+kTiles*panelK <= m.Rows && c0 >= 0 && c0+panelN <= m.Cols {
		PackBRows(dst, m.Data[r0*m.Cols+c0:], m.Cols, kTiles*panelK)
		return
	}
	for t := 0; t < kTiles; t++ {
		m.Tile(dst[t*panelK*panelN:(t+1)*panelK*panelN], r0+t*panelK, c0, panelK, panelN)
	}
}

// PackAPanels packs the whole matrix as the A operand of a k-sweep of
// kTiles: ceil(Rows/8) row-panels back to back, row tile ti at offset
// ti·kTiles·32, each packed (and edge-padded) by PackAPanel.
func (m *Matrix) PackAPanels(dst []float64, kTiles int) {
	stride := kTiles * panelM * panelK
	for ti := 0; ti*panelM < m.Rows; ti++ {
		m.PackAPanel(dst[ti*stride:(ti+1)*stride], ti*panelM, 0, kTiles)
	}
}

// PackBPanels packs the whole matrix as the B operand of a k-sweep of
// kTiles: ceil(Cols/8) column-panels back to back, column tile tj at offset
// tj·kTiles·32, each packed (and edge-padded) by PackBPanel.
func (m *Matrix) PackBPanels(dst []float64, kTiles int) {
	stride := kTiles * panelK * panelN
	for tj := 0; tj*panelN < m.Cols; tj++ {
		m.PackBPanel(dst[tj*stride:(tj+1)*stride], 0, tj*panelN, kTiles)
	}
}

// Vector is a dense FP64 vector.
type Vector struct {
	Data []float64
}

// NewVector allocates a zeroed length-n vector.
func NewVector(n int) *Vector { return &Vector{Data: make([]float64, n)} }

// Len returns the vector length.
func (v *Vector) Len() int { return len(v.Data) }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := NewVector(len(v.Data))
	copy(c.Data, v.Data)
	return c
}

// Equal reports exact element-wise equality.
func (v *Vector) Equal(w *Vector) bool {
	if len(v.Data) != len(w.Data) {
		return false
	}
	for i, x := range v.Data {
		if x != w.Data[i] {
			return false
		}
	}
	return true
}

// ComplexArray stores complex FP64 data in split (planar) form, the layout
// tcFFT-style kernels use so real and imaginary planes can be fed to
// independent real-valued MMA operations.
type ComplexArray struct {
	Re, Im []float64
}

// NewComplexArray allocates a zeroed length-n complex array.
func NewComplexArray(n int) *ComplexArray {
	return &ComplexArray{Re: make([]float64, n), Im: make([]float64, n)}
}

// Len returns the number of complex elements.
func (c *ComplexArray) Len() int { return len(c.Re) }

// Clone returns a deep copy.
func (c *ComplexArray) Clone() *ComplexArray {
	d := NewComplexArray(c.Len())
	copy(d.Re, c.Re)
	copy(d.Im, c.Im)
	return d
}
