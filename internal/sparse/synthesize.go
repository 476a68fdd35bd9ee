package sparse

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lcg"
	"repro/internal/par"
)

// Dataset describes one Table 4 matrix: the published SuiteSparse metadata
// and the synthesis recipe that reproduces its structural class. The paper's
// inputs come from the SuiteSparse collection; this repo has no network or
// dataset access, so each instance is synthesized with matching row count,
// matching (or near-matching) nonzero count, and the structural character of
// its group (see DESIGN.md, substitutions table).
type Dataset struct {
	Name      string
	Group     string
	Rows      int // published row count (reproduced exactly)
	Nonzeros  int // published nonzero count (reproduced within tolerance)
	Class     string
	Symmetric bool
}

// Table4 lists the five SpMV/SpGEMM matrices of the paper's Table 4.
func Table4() []Dataset {
	return []Dataset{
		{Name: "spmsrts", Group: "GHS_indef", Rows: 29995, Nonzeros: 229947,
			Class: "banded-indefinite", Symmetric: true},
		{Name: "Chevron1", Group: "Chevron", Rows: 37365, Nonzeros: 330633,
			Class: "banded-seismic", Symmetric: false},
		{Name: "raefsky3", Group: "Simon", Rows: 21200, Nonzeros: 1488768,
			Class: "block-fluid", Symmetric: false},
		{Name: "conf5_4-8x8-10", Group: "QCD", Rows: 49152, Nonzeros: 1916928,
			Class: "lattice-qcd", Symmetric: false},
		{Name: "bcsstk39", Group: "Boeing", Rows: 46772, Nonzeros: 2089294,
			Class: "block-stiffness", Symmetric: true},
	}
}

// Synthesize materializes the named Table 4 matrix (deterministically).
func Synthesize(name string) (*CSR, error) {
	for _, d := range Table4() {
		if d.Name == name {
			return synthesizeClass(d, lcg.New(int64(len(d.Name))*7919+int64(d.Rows))), nil
		}
	}
	return nil, fmt.Errorf("sparse: unknown Table 4 matrix %q", name)
}

func synthesizeClass(d Dataset, g *lcg.Generator) *CSR {
	switch d.Class {
	case "banded-indefinite":
		// Narrow band, ~7.7 nnz/row, indefinite values (sign-mixed).
		return banded(d.Rows, 3, 0.96, true, g, true)
	case "banded-seismic":
		// Slightly wider band, ~8.9 nnz/row.
		return banded(d.Rows, 4, 0.93, false, g, true)
	case "block-fluid":
		// Dense 8×8 blocks along a block band: ~70 nnz/row.
		return blockBanded(d.Rows, 8, 9, g)
	case "lattice-qcd":
		// 4D periodic lattice of 16·16·8·8 = 16384 sites with 3 spin
		// degrees of freedom per site and 13 couplings (self + 8 axis
		// neighbors + 4 planar diagonals), each a dense 3×3 spin block:
		// exactly 13·3 = 39 nnz per row → 49152·39 = 1,916,928 nonzeros,
		// matching conf5_4-8x8-10 exactly — including the dense small-block
		// structure of Wilson-Dirac operators that blocked formats exploit.
		return latticeQCD([4]int{16, 16, 8, 8}, 3, g)
	case "block-stiffness":
		// 6×6 element blocks on a wider band: ~45 nnz/row, symmetric.
		return blockBanded(d.Rows, 6, 8, g)
	default:
		panic("sparse: unknown synthesis class " + d.Class)
	}
}

// banded generates a symmetric-pattern band matrix with half-bandwidth hb.
// Each in-band entry is kept with probability keep; mixedSign makes the
// matrix indefinite. Entries are drawn row by row in ascending column
// order, which is CSR order, so they append straight into the output; the
// slices are clipped to their length once the keep draws have fixed it.
// Keep draws and value draws interleave, so the pattern alone still takes
// every draw: without values, each kept entry's value draw is a bare Next
// and Vals stays nil.
func banded(rows, hb int, keep float64, mixedSign bool, g *lcg.Generator, values bool) *CSR {
	m := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	colIdx := make([]int32, 0, rows*(2*hb+1))
	var vals []float64
	if values {
		vals = make([]float64, 0, rows*(2*hb+1))
	}
	for i := 0; i < rows; i++ {
		for j := max(i-hb, 0); j <= min(i+hb, rows-1); j++ {
			if j != i && g.Uniform() > keep {
				continue
			}
			colIdx = append(colIdx, int32(j))
			if !values {
				g.Next()
				continue
			}
			v := g.Symmetric()
			if !mixedSign && v < 0 {
				v = -v
			}
			if j == i {
				v += float64(2 * hb) // diagonal weight for realism
			}
			vals = append(vals, v)
		}
		m.RowPtr[i+1] = len(colIdx)
	}
	m.ColIdx = slices.Clip(colIdx)
	if values {
		m.Vals = slices.Clip(vals)
	}
	return m
}

// blockBand is the geometry of a block-banded matrix: dense bs×bs blocks,
// blocksPerRow block columns per block row centered on the diagonal.
type blockBand struct{ rows, bs, brows, half int }

func newBlockBand(rows, bs, blocksPerRow int) blockBand {
	return blockBand{rows: rows, bs: bs, brows: (rows + bs - 1) / bs, half: blocksPerRow / 2}
}

// cols returns the first column of block row bi's band and one past its
// last.
func (b blockBand) cols(bi int) (lo, hi int) {
	return max(bi-b.half, 0) * b.bs, min(min(bi+b.half, b.brows-1)*b.bs+b.bs, b.rows)
}

// nnz returns the stored entry count: each block row's rows times its
// band width.
func (b blockBand) nnz() int {
	n := 0
	for bi := 0; bi < b.brows; bi++ {
		lo, hi := b.cols(bi)
		n += (min(bi*b.bs+b.bs, b.rows) - bi*b.bs) * (hi - lo)
	}
	return n
}

// blockBanded generates a block-banded matrix of dense bs×bs blocks with
// blocksPerRow block-columns per block-row centered on the diagonal.
// Every row of block row bi spans the same contiguous column range, so row
// lengths come from the block geometry alone; each entry, drawn block by
// block, lands at its row's offset of its column inside that range. It
// draws exactly one value per stored entry, so with g nil it writes each
// row's column run alone, and a caller that still owes the draws skips
// newBlockBand(rows, bs, blocksPerRow).nnz() of them.
func blockBanded(rows, bs, blocksPerRow int, g *lcg.Generator) *CSR {
	band := newBlockBand(rows, bs, blocksPerRow)
	m := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		lo, hi := band.cols(i / bs)
		m.RowPtr[i+1] = m.RowPtr[i] + hi - lo
	}
	m.ColIdx = make([]int32, m.RowPtr[rows])
	if g == nil {
		for i := 0; i < rows; i++ {
			lo, _ := band.cols(i / bs)
			for k, j := m.RowPtr[i], int32(lo); k < m.RowPtr[i+1]; k, j = k+1, j+1 {
				m.ColIdx[k] = j
			}
		}
		return m
	}
	m.Vals = make([]float64, m.RowPtr[rows])
	for bi := 0; bi < band.brows; bi++ {
		lo, _ := band.cols(bi)
		for bj := max(bi-band.half, 0); bj <= min(bi+band.half, band.brows-1); bj++ {
			for di := 0; di < bs; di++ {
				for dj := 0; dj < bs; dj++ {
					i, j := bi*bs+di, bj*bs+dj
					if i >= rows || j >= rows {
						continue
					}
					k := m.RowPtr[i] + j - lo
					m.ColIdx[k] = int32(j)
					v := g.Symmetric()
					if i == j {
						v += float64(bs * blocksPerRow)
					}
					m.Vals[k] = v
				}
			}
		}
	}
	return m
}

// latticeQCD generates a Wilson-Dirac-style matrix: a 4D periodic lattice
// where each site carries dof spin components and couples to itself, its 8
// axis neighbors, and 4 planar diagonal neighbors with dense dof×dof spin
// blocks.
func latticeQCD(dims [4]int, dof int, g *lcg.Generator) *CSR {
	sites := dims[0] * dims[1] * dims[2] * dims[3]
	n := sites * dof
	idx := func(c [4]int) int {
		return ((c[0]*dims[1]+c[1])*dims[2]+c[2])*dims[3] + c[3]
	}
	offsets := [][4]int{
		{0, 0, 0, 0},
		{1, 0, 0, 0}, {-1, 0, 0, 0}, {0, 1, 0, 0}, {0, -1, 0, 0},
		{0, 0, 1, 0}, {0, 0, -1, 0}, {0, 0, 0, 1}, {0, 0, 0, -1},
		{1, 1, 0, 0}, {-1, -1, 0, 0}, {0, 0, 1, 1}, {0, 0, -1, -1},
	}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	m.ColIdx = make([]int32, 0, n*len(offsets)*dof)
	m.Vals = make([]float64, 0, n*len(offsets)*dof)
	var c [4]int
	nbrs := make([]int32, 0, len(offsets))
	for c[0] = 0; c[0] < dims[0]; c[0]++ {
		for c[1] = 0; c[1] < dims[1]; c[1]++ {
			for c[2] = 0; c[2] < dims[2]; c[2]++ {
				for c[3] = 0; c[3] < dims[3]; c[3]++ {
					site := idx(c)
					nbrs = nbrs[:0]
					for _, o := range offsets {
						nbrs = append(nbrs, int32(idx(wrap(c, o, dims))))
					}
					insertionSortInt32(nbrs)
					nbrs = dedupeSortedInt32(nbrs)
					for s := 0; s < dof; s++ {
						row := site*dof + s
						for _, nb := range nbrs {
							for ss := 0; ss < dof; ss++ {
								v := g.Symmetric()
								col := int(nb)*dof + ss
								if col == row {
									v += 8
								}
								m.ColIdx = append(m.ColIdx, int32(col))
								m.Vals = append(m.Vals, v)
							}
						}
						m.RowPtr[row+1] = len(m.ColIdx)
					}
				}
			}
		}
	}
	return m
}

// lattice4DOffsets are lattice4D's 38 distinct nonzero torus offsets
// (±eᵢ, ±2eᵢ with 3-spin structure folded in); with the diagonal, 39 per
// row.
var lattice4DOffsets = func() [][4]int {
	var offsets [][4]int
	for d := 0; d < 4; d++ {
		for _, s := range []int{1, -1, 2, -2} {
			var o [4]int
			o[d] = s
			offsets = append(offsets, o)
		}
	}
	// 16 so far; add the 22 nearest diagonal couplings (pairs of axes).
	for a := 0; a < 4 && len(offsets) < 38; a++ {
		for b := a + 1; b < 4 && len(offsets) < 38; b++ {
			for _, sa := range []int{1, -1} {
				for _, sb := range []int{1, -1} {
					if len(offsets) == 38 {
						break
					}
					var o [4]int
					o[a], o[b] = sa, sb
					offsets = append(offsets, o)
				}
			}
		}
	}
	// Still short? extend with ±3 axis offsets.
	for d := 0; len(offsets) < 38; d++ {
		var o [4]int
		o[d%4] = 3 * (1 - 2*(d/4))
		offsets = append(offsets, o)
	}
	return offsets
}()

// wrap returns the site c+o on the torus dims.
func wrap(c, o, dims [4]int) [4]int {
	var nb [4]int
	for d := 0; d < 4; d++ {
		nb[d] = ((c[d]+o[d])%dims[d] + dims[d]) % dims[d]
	}
	return nb
}

// lattice4DNNZ returns lattice4D(dims)'s stored entry count. The torus is
// translation invariant: two offsets reach the same neighbor of a site
// exactly when they agree modulo dims, which no site changes, so every row
// holds the distinct residues of the diagonal and the offsets.
func lattice4DNNZ(dims [4]int) int {
	distinct := map[[4]int]bool{{}: true}
	for _, o := range lattice4DOffsets {
		distinct[wrap([4]int{}, o, dims)] = true
	}
	return dims[0] * dims[1] * dims[2] * dims[3] * len(distinct)
}

// lattice4D generates a matrix on a 4D periodic lattice where each site
// couples to itself and to the 38 torus offsets of lattice4DOffsets,
// giving exactly 39 nonzeros per row on a lattice of extent 5 or more —
// the regular Wilson-Dirac structure of QCD matrices such as
// conf5_4-8x8-10. It draws exactly one value per stored entry, so with g
// nil it builds the pattern alone, and a caller that still owes the draws
// skips lattice4DNNZ(dims) of them.
func lattice4D(dims [4]int, g *lcg.Generator) *CSR {
	n := dims[0] * dims[1] * dims[2] * dims[3]
	idx := func(c [4]int) int {
		return ((c[0]*dims[1]+c[1])*dims[2]+c[2])*dims[3] + c[3]
	}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	m.ColIdx = make([]int32, 0, n*39)
	if g != nil {
		m.Vals = make([]float64, 0, n*39)
	}
	cols := make([]int32, 0, 39)
	var c [4]int
	for c[0] = 0; c[0] < dims[0]; c[0]++ {
		for c[1] = 0; c[1] < dims[1]; c[1]++ {
			for c[2] = 0; c[2] < dims[2]; c[2]++ {
				for c[3] = 0; c[3] < dims[3]; c[3]++ {
					i := idx(c)
					cols = append(cols[:0], int32(i))
					for _, o := range lattice4DOffsets {
						cols = append(cols, int32(idx(wrap(c, o, dims))))
					}
					// On small lattices distinct offsets can wrap onto the
					// same site, so sort and dedupe for CSR validity.
					// Offsets move at most 2 along an axis, so only an
					// extent below 5 collides, and Corpus draws extents
					// down to 2. (Table 4's QCD matrix comes from
					// latticeQCD, not from here.)
					insertionSortInt32(cols)
					cols = dedupeSortedInt32(cols)
					m.ColIdx = append(m.ColIdx, cols...)
					if g != nil {
						for _, j := range cols {
							v := g.Symmetric()
							if int(j) == i {
								v += 8
							}
							m.Vals = append(m.Vals, v)
						}
					}
					m.RowPtr[i+1] = len(m.ColIdx)
				}
			}
		}
	}
	// RowPtr was filled in lattice order, which is already ascending row
	// order because idx enumerates rows in sequence.
	return m
}

func dedupeSortedInt32(a []int32) []int32 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Features is the structural feature vector used for the Figure 10b PCA
// coverage analysis: the paper standardizes sparsity, row/column degree
// statistics and block structure before projecting.
type Features struct {
	LogRows      float64
	LogNNZ       float64
	AvgRowDegree float64
	RowDegreeCV  float64 // coefficient of variation of row degrees
	MaxAvgRatio  float64 // max degree / average degree
	BandFraction float64 // mean normalized |i-j| distance of nonzeros
	BlockFill    float64 // density inside touched 4×4 blocks
}

// ExtractFeatures computes the Figure 10b feature vector for a matrix. One
// row-major sweep gathers the row degrees, the band distances and the
// distinct 4×4 blocks (counted against a stamp per block column, as
// ToMBSR's pass 1 does), each summed in row order.
func ExtractFeatures(m *CSR) Features {
	n := float64(m.Rows)
	nnz := float64(m.NNZ())
	var f Features
	f.LogRows = log10(n)
	f.LogNNZ = log10(nnz)
	f.AvgRowDegree = nnz / n

	stamp := mbsrStampScratch.Get((m.Cols + BlockSize - 1) / BlockSize)
	defer mbsrStampScratch.Put(stamp)
	clear(stamp)
	var sumSq, maxDeg, distSum float64
	blocks := 0
	for i := 0; i < m.Rows; i++ {
		d := float64(m.RowNNZ(i))
		sumSq += d * d
		if d > maxDeg {
			maxDeg = d
		}
		br := int32(i/BlockSize + 1)
		for _, c := range m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] {
			dist := float64(int(c) - i)
			if dist < 0 {
				dist = -dist
			}
			distSum += dist
			if b := c / BlockSize; stamp[b] != br {
				stamp[b] = br
				blocks++
			}
		}
	}
	mean := f.AvgRowDegree
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		f.RowDegreeCV = math.Sqrt(variance) / mean
		f.MaxAvgRatio = maxDeg / mean
	}
	if nnz > 0 && n > 1 {
		f.BandFraction = distSum / nnz / (n - 1)
	}
	f.BlockFill = fillRatio(m.NNZ(), blocks)
	return f
}

// Vector flattens the features in a fixed order for PCA.
func (f Features) Vector() []float64 {
	return []float64{f.LogRows, f.LogNNZ, f.AvgRowDegree, f.RowDegreeCV,
		f.MaxAvgRatio, f.BandFraction, f.BlockFill}
}

// FeatureNames labels the Vector components.
func FeatureNames() []string {
	return []string{"logRows", "logNNZ", "avgDeg", "degCV", "maxAvg", "band", "blockFill"}
}

// Corpus generates n synthetic matrices spanning the structural classes
// above (banded, block, lattice, scale-free rows) across a log-uniform size
// range, standing in for the 2893-matrix SuiteSparse sweep of Figure 10b.
// It collects CorpusEach, so it holds the whole corpus at once.
func Corpus(n int, seed int64) []*CSR {
	out := make([]*CSR, 0, n)
	CorpusEach(n, seed, func(m *CSR) { out = append(out, m) })
	return out
}

// CorpusEach synthesizes Corpus(n, seed) one matrix at a time and hands
// each to fn in corpus order. A matrix fn does not keep is garbage as soon
// as fn returns, so a caller that only reduces each matrix never holds more
// than one.
func CorpusEach(n int, seed int64, fn func(*CSR)) {
	g := lcg.New(seed)
	for i := 0; i < n; i++ {
		fn(drawCorpusMatrix(i, g).build(g, true))
	}
}

// corpusWindow is how many corpus matrices CorpusFeatures draws before it
// hands them to the pool: it bounds the patterns held at once.
const corpusWindow = 32

// CorpusFeatures returns ExtractFeatures of every Corpus(n, seed) matrix,
// in corpus order, bit for bit — Figure 10b's background. Features read
// only the pattern, so only power-law matrices store values. It draws
// every matrix's parameters serially, in RNG order. A banded or
// power-law pattern depends on its draws, so it is built there too; a
// block-banded or lattice matrix draws exactly one value per stored entry,
// so its draws are skipped (lcg Skip) and its pattern is built on the par
// pool, beside every feature extraction. Each matrix's features land at
// its index, so the order is fixed for any worker count.
func CorpusFeatures(n int, seed int64) []Features {
	feats := make([]Features, n)
	g := lcg.New(seed)
	specs := make([]corpusMatrix, corpusWindow)
	mats := make([]*CSR, corpusWindow)
	for lo := 0; lo < n; lo += corpusWindow {
		w := min(corpusWindow, n-lo)
		for k := 0; k < w; k++ {
			specs[k] = drawCorpusMatrix(lo+k, g)
			mats[k] = nil
			if specs[k].skip > 0 {
				g.Skip(specs[k].skip)
				continue
			}
			mats[k] = specs[k].build(g, false)
		}
		par.ForTiles(w, func(a, b int) {
			for k := a; k < b; k++ {
				m := mats[k]
				if m == nil {
					m = specs[k].build(nil, false)
				}
				feats[lo+k] = ExtractFeatures(m)
			}
		})
	}
	return feats
}

// corpusMatrix is one corpus matrix with its parameters drawn. build
// synthesizes it from g: without values, a banded matrix still takes
// every draw, since its keep draws decide the pattern, but stores no
// value; a block-banded or lattice matrix builds its pattern alone when g
// is nil; a power-law matrix is always built in full. skip, when nonzero,
// is the number of value draws of a matrix whose pattern builds without g.
type corpusMatrix struct {
	build func(g *lcg.Generator, values bool) *CSR
	skip  int
}

// drawCorpusMatrix draws corpus matrix i's parameters from g, in RNG
// order. The composition mirrors the SuiteSparse collection: mostly
// banded and blocked FEM-style matrices, some lattices, a tail of
// scattered (power-law) patterns.
func drawCorpusMatrix(i int, g *lcg.Generator) corpusMatrix {
	// Log-uniform rows in [256, 128Ki), mirroring the collection's size
	// spread so the Table 4 instances land inside the cloud.
	rows := 256 << g.Intn(9)
	rows += g.Intn(rows)
	switch i % 8 {
	case 0, 1, 2:
		hb := 1 + g.Intn(6)
		keep := 0.6 + 0.4*g.Uniform()
		return corpusMatrix{build: func(g *lcg.Generator, values bool) *CSR {
			return banded(rows, hb, keep, i%6 == 0, g, values)
		}}
	case 3, 4, 5:
		bs := 2 + g.Intn(7)
		bpr := 3 + g.Intn(7)
		return corpusMatrix{skip: newBlockBand(rows, bs, bpr).nnz(),
			build: func(g *lcg.Generator, _ bool) *CSR { return blockBanded(rows, bs, bpr, g) }}
	case 6:
		d := 4 + g.Intn(13)
		dims := [4]int{d, d, d, 2 + g.Intn(5)}
		return corpusMatrix{skip: lattice4DNNZ(dims),
			build: func(g *lcg.Generator, _ bool) *CSR { return lattice4D(dims, g) }}
	default:
		avgDeg := 2 + g.Intn(12)
		return corpusMatrix{build: func(g *lcg.Generator, _ bool) *CSR {
			return powerLawRows(min(rows, 16384), avgDeg, g)
		}}
	}
}

// powerLawRows generates a matrix whose row degrees follow a heavy-tailed
// distribution (scale-free-like), the structure of web/social matrices.
// Each row draws distinct columns against a stamp array (stamp[j] == i+1
// marks column j taken in row i), then sorts its entries by column, which
// yields the CSR row a COO build of the same draws produces. The sort keys
// carry each entry's draw position in their low bits, as COO.ToCSR's do.
func powerLawRows(rows, avgDeg int, g *lcg.Generator) *CSR {
	m := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	stamp := make([]int32, rows)
	var keys []uint64
	var vals []float64
	for i := 0; i < rows; i++ {
		// Pareto-ish degree: avg/u with a cap.
		deg := int(float64(avgDeg) * 0.5 / (0.02 + 0.98*g.Uniform()))
		if deg > rows/2 {
			deg = rows / 2
		}
		if deg < 1 {
			deg = 1
		}
		mark := int32(i + 1)
		stamp[i] = mark
		keys = append(keys[:0], uint64(i)<<32)
		vals = append(vals[:0], g.Symmetric()+4)
		for len(keys) <= deg {
			j := g.Intn(rows)
			if stamp[j] != mark {
				stamp[j] = mark
				keys = append(keys, uint64(j)<<32|uint64(len(keys)))
				vals = append(vals, g.Symmetric())
			}
		}
		slices.Sort(keys)
		for _, k := range keys {
			m.ColIdx = append(m.ColIdx, int32(k>>32))
			m.Vals = append(m.Vals, vals[uint32(k)])
		}
		m.RowPtr[i+1] = len(m.ColIdx)
	}
	return m
}

func log10(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log10(x)
}
