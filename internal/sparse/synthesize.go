package sparse

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lcg"
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
		return banded(d.Rows, 3, 0.96, true, g)
	case "banded-seismic":
		// Slightly wider band, ~8.9 nnz/row.
		return banded(d.Rows, 4, 0.93, false, g)
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
func banded(rows, hb int, keep float64, mixedSign bool, g *lcg.Generator) *CSR {
	m := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	colIdx := make([]int32, 0, rows*(2*hb+1))
	vals := make([]float64, 0, rows*(2*hb+1))
	for i := 0; i < rows; i++ {
		for j := max(i-hb, 0); j <= min(i+hb, rows-1); j++ {
			if j != i && g.Uniform() > keep {
				continue
			}
			colIdx = append(colIdx, int32(j))
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
	m.Vals = slices.Clip(vals)
	return m
}

// bandedFeatures is ExtractFeatures(banded(rows, hb, keep, _, g)), bit for
// bit, from the same draws: the keep draws decide the pattern, and each
// kept entry's value draw is a bare Next. Each entry is summed as it is
// drawn, and nothing is stored.
//
// The keep draws are random, so the loop takes no branch on them. It steps
// a copy of the generator's state. An entry is rejected when its draw's
// Uniform exceeds keep, that is when the raw draw is at least the state
// threshold of the next float above keep, so kept is one integer compare.
// A kept entry also takes its value draw, so the state moves to Step(x) or
// Step2(x), selected by the kept mask, and the entry is summed through the
// same mask.
func bandedFeatures(rows, hb int, keep float64, g *lcg.Generator) Features {
	s := newFeatureSums(rows, rows)
	tReject := lcg.Threshold(math.Nextafter(keep, math.Inf(1)))
	x := g.State()
	for i := 0; i < rows; i++ {
		deg := int64(0)
		for j := max(i-hb, 0); j <= min(i+hb, rows-1); j++ {
			if j == i { // the diagonal takes no keep draw
				x = lcg.Step(x)
				deg++
				s.entry(i, j)
				continue
			}
			x1, x2 := lcg.Step(x), lcg.Step2(x)
			kept := lcg.AtLeast(x1, tReject) - 1 // all ones when kept
			x = x1 ^ (x1^x2)&kept
			deg -= kept
			s.keptEntry(i, j, kept)
		}
		s.row(int(deg))
	}
	g.SetState(x)
	return s.features()
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

// blockBandedFeatures is ExtractFeatures(blockBanded(rows, bs,
// blocksPerRow, g)), bit for bit, from the geometry alone; it skips the
// build's draws, one per stored entry. Row i of block row bi holds the
// columns [lo, hi) of cols(bi), which contain i, so its degree is hi−lo and
// its band distances sum to a(a+1)/2 + b(b+1)/2 with a = i−lo and
// b = hi−1−i. Consecutive block rows' ranges overlap or meet, so each 4-row
// group touches every 4-column block of one contiguous range, from its
// first row's lo to its last row's hi.
func blockBandedFeatures(rows, bs, blocksPerRow int, g *lcg.Generator) Features {
	band := newBlockBand(rows, bs, blocksPerRow)
	s := featureSums{rows: rows}
	for i := 0; i < rows; i++ {
		lo, hi := band.cols(i / bs)
		s.row(hi - lo)
		a, b := i-lo, hi-1-i
		s.dist += a*(a+1)/2 + b*(b+1)/2
	}
	for i := 0; i < rows; i += BlockSize {
		lo, _ := band.cols(i / bs)
		_, hi := band.cols((min(i+BlockSize, rows) - 1) / bs)
		s.blocks += (hi-1)/BlockSize - lo/BlockSize + 1
	}
	g.Skip(s.nnz)
	return s.features()
}

// blockBanded generates a block-banded matrix of dense bs×bs blocks with
// blocksPerRow block-columns per block-row centered on the diagonal.
// Every row of block row bi spans the same contiguous column range, so row
// lengths come from the block geometry alone; each entry, drawn block by
// block, lands at its row's offset of its column inside that range. It
// draws exactly one value per stored entry.
func blockBanded(rows, bs, blocksPerRow int, g *lcg.Generator) *CSR {
	band := newBlockBand(rows, bs, blocksPerRow)
	m := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		lo, hi := band.cols(i / bs)
		m.RowPtr[i+1] = m.RowPtr[i] + hi - lo
	}
	m.ColIdx = make([]int32, m.RowPtr[rows])
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

// lattice4DResidues returns the distinct residues modulo dims of the
// diagonal and lattice4DOffsets, the diagonal first. The torus is
// translation invariant: two offsets reach the same neighbor of a site
// exactly when they agree modulo dims, which no site changes, so every
// row of lattice4D(dims) holds one entry per residue. Offsets move at most
// 2 along an axis, so only an extent below 5 makes two of them collide.
func lattice4DResidues(dims [4]int) [][4]int {
	res := [][4]int{{}}
	for _, o := range lattice4DOffsets {
		if r := wrap([4]int{}, o, dims); !slices.Contains(res, r) {
			res = append(res, r)
		}
	}
	return res
}

// lattice4D generates a matrix on a 4D periodic lattice where each site
// couples to itself and to the 38 torus offsets of lattice4DOffsets,
// giving exactly 39 nonzeros per row on a lattice of extent 5 or more —
// the regular Wilson-Dirac structure of QCD matrices such as
// conf5_4-8x8-10. Corpus draws extents down to 2, where offsets collide,
// so each row takes the distinct residues of lattice4DResidues. It draws
// exactly one value per stored entry. (Table 4's QCD matrix comes from
// latticeQCD, not from here.)
func lattice4D(dims [4]int, g *lcg.Generator) *CSR {
	res := lattice4DResidues(dims)
	n := dims[0] * dims[1] * dims[2] * dims[3]
	idx := func(c [4]int) int {
		return ((c[0]*dims[1]+c[1])*dims[2]+c[2])*dims[3] + c[3]
	}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	m.ColIdx = make([]int32, 0, n*len(res))
	m.Vals = make([]float64, 0, n*len(res))
	cols := make([]int32, len(res))
	var c [4]int
	for c[0] = 0; c[0] < dims[0]; c[0]++ {
		for c[1] = 0; c[1] < dims[1]; c[1]++ {
			for c[2] = 0; c[2] < dims[2]; c[2]++ {
				for c[3] = 0; c[3] < dims[3]; c[3]++ {
					i := idx(c)
					for k, r := range res {
						cols[k] = int32(idx(wrap(c, r, dims)))
					}
					insertionSortInt32(cols)
					m.ColIdx = append(m.ColIdx, cols...)
					for _, j := range cols {
						v := g.Symmetric()
						if int(j) == i {
							v += 8
						}
						m.Vals = append(m.Vals, v)
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

// lattice4DFeatures is ExtractFeatures(lattice4D(dims, g)), bit for bit; it
// skips the build's draws, one per stored entry. Every row holds one entry
// per residue, so a sweep over sites (in row order, with the coordinates
// of site i in c) and residues sums the band distances and counts the
// blocks, with no sort and no dedupe.
func lattice4DFeatures(dims [4]int, g *lcg.Generator) Features {
	res := lattice4DResidues(dims)
	n := dims[0] * dims[1] * dims[2] * dims[3]
	s := newFeatureSums(n, n)
	var c [4]int
	for i := 0; i < n; i++ {
		s.row(len(res))
		for _, r := range res {
			j := 0
			for d, x := range c {
				if x += r[d]; x >= dims[d] {
					x -= dims[d]
				}
				j = j*dims[d] + x
			}
			s.entry(i, j)
		}
		for d := 3; d >= 0; d-- {
			if c[d]++; c[d] < dims[d] {
				break
			}
			c[d] = 0
		}
	}
	g.Skip(s.nnz)
	return s.features()
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

// ExtractFeatures computes the Figure 10b feature vector for a matrix in
// one row-major sweep of its pattern.
func ExtractFeatures(m *CSR) Features {
	s := newFeatureSums(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		s.row(m.RowNNZ(i))
		for _, c := range m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] {
			s.entry(i, int(c))
		}
	}
	return s.features()
}

// featureSums is what a pattern's Features reduce from: its row count, and
// integer sums of the row degrees, their squares and the band distances
// |i−j|, the largest degree and the count of distinct touched 4×4 blocks.
// ExtractFeatures and every corpus feature path fill one, and only
// features turns it into floats. A sum below 2^53 (every sum, for fewer
// than 2^26 rows and 2^26 entries) is exactly the float sum of its terms
// in any order, so every path that yields the same sums yields the same
// bits as a float accumulation in row order.
type featureSums struct {
	rows, nnz, sumSq, maxDeg, dist, blocks int
	// stamp[b] is 1 + the block row that last touched block column b
	// (as in ToMBSR's pass 1); nil on a path that counts blocks itself.
	stamp []int32
}

// newFeatureSums returns empty sums for a rows×cols pattern fed entry by
// entry, with a cleared pooled stamp.
func newFeatureSums(rows, cols int) featureSums {
	s := featureSums{rows: rows, stamp: mbsrStampScratch.Get((cols + BlockSize - 1) / BlockSize)}
	clear(s.stamp)
	return s
}

// row adds a row of deg stored entries.
func (s *featureSums) row(deg int) {
	s.nnz += deg
	s.sumSq += deg * deg
	s.maxDeg = max(s.maxDeg, deg)
}

// entry adds stored entry (i, j): its band distance, and its 4×4 block the
// first time i's block row touches it.
func (s *featureSums) entry(i, j int) {
	s.dist += max(j-i, i-j)
	if b, br := j/BlockSize, int32(i/BlockSize+1); s.stamp[b] != br {
		s.stamp[b] = br
		s.blocks++
	}
}

// keptEntry is entry(i, j) through a mask, without a branch: it adds the
// entry when kept is all ones and nothing when it is zero.
func (s *featureSums) keptEntry(i, j int, kept int64) {
	s.dist += max(j-i, i-j) & int(kept)
	b, br := j/BlockSize, int32(i/BlockSize+1)
	d := int64(s.stamp[b] ^ br) // nonzero when block b is new to the block row
	s.blocks += int(int64(uint64(d|-d)>>63) & kept)
	s.stamp[b] ^= (s.stamp[b] ^ br) & int32(kept)
}

// features finishes the sums into the feature vector and hands the stamp
// back to its pool.
func (s *featureSums) features() Features {
	if s.stamp != nil {
		mbsrStampScratch.Put(s.stamp)
		s.stamp = nil
	}
	n, nnz := float64(s.rows), float64(s.nnz)
	f := Features{LogRows: log10(n), LogNNZ: log10(nnz), AvgRowDegree: nnz / n}
	mean := f.AvgRowDegree
	variance := float64(s.sumSq)/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	if mean > 0 {
		f.RowDegreeCV = math.Sqrt(variance) / mean
		f.MaxAvgRatio = float64(s.maxDeg) / mean
	}
	if nnz > 0 && n > 1 {
		f.BandFraction = float64(s.dist) / nnz / (n - 1)
	}
	f.BlockFill = fillRatio(s.nnz, s.blocks)
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
		fn(drawCorpusMatrix(i, g).build(g))
	}
}

// CorpusFeatures returns ExtractFeatures of every Corpus(n, seed) matrix,
// in corpus order, bit for bit — Figure 10b's background — without
// building any of them. It draws each matrix's parameters and then its
// features in RNG order, one matrix after another: a block-banded or
// lattice matrix's features come from its geometry and its value draws
// are skipped; a banded or power-law matrix's pattern depends on its
// draws, so it takes them all and sums each entry as it is drawn.
func CorpusFeatures(n int, seed int64) []Features {
	feats := make([]Features, n)
	g := lcg.New(seed)
	for i := range feats {
		feats[i] = drawCorpusMatrix(i, g).features(g)
	}
	return feats
}

// corpusMatrix is one corpus matrix with its parameters drawn. build
// synthesizes it from g; features returns ExtractFeatures of that build,
// bit for bit, leaving g where build would, without building it.
type corpusMatrix struct {
	build    func(g *lcg.Generator) *CSR
	features func(g *lcg.Generator) Features
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
		return corpusMatrix{
			build:    func(g *lcg.Generator) *CSR { return banded(rows, hb, keep, i%6 == 0, g) },
			features: func(g *lcg.Generator) Features { return bandedFeatures(rows, hb, keep, g) },
		}
	case 3, 4, 5:
		bs := 2 + g.Intn(7)
		bpr := 3 + g.Intn(7)
		return corpusMatrix{
			build:    func(g *lcg.Generator) *CSR { return blockBanded(rows, bs, bpr, g) },
			features: func(g *lcg.Generator) Features { return blockBandedFeatures(rows, bs, bpr, g) },
		}
	case 6:
		d := 4 + g.Intn(13)
		dims := [4]int{d, d, d, 2 + g.Intn(5)}
		return corpusMatrix{
			build:    func(g *lcg.Generator) *CSR { return lattice4D(dims, g) },
			features: func(g *lcg.Generator) Features { return lattice4DFeatures(dims, g) },
		}
	default:
		avgDeg := 2 + g.Intn(12)
		rows := min(rows, 16384)
		return corpusMatrix{
			build:    func(g *lcg.Generator) *CSR { return powerLawRows(rows, avgDeg, g) },
			features: func(g *lcg.Generator) Features { return powerLawFeatures(rows, avgDeg, g) },
		}
	}
}

// powerLawRows generates a matrix whose row degrees follow a heavy-tailed
// distribution (scale-free-like), the structure of web/social matrices.
// Each row draws distinct columns against a stamp array (stamp[j] == i+1
// marks column j taken in row i), then sorts its entries by column, which
// yields the CSR row a COO build of the same draws produces. The sort keys
// carry each entry's draw position in their low bits, which index vals.
// It needs rows ≥ 2: every row holds its diagonal and at least one more
// column.
func powerLawRows(rows, avgDeg int, g *lcg.Generator) *CSR {
	m := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	stamp := make([]int32, rows)
	var keys []uint64
	var vals []float64
	for i := 0; i < rows; i++ {
		deg := powerLawDegree(rows, avgDeg, g)
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

// powerLawDegree draws a power-law row's off-diagonal degree: Pareto-ish,
// avgDeg/u, capped to [1, rows/2].
func powerLawDegree(rows, avgDeg int, g *lcg.Generator) int {
	deg := int(float64(avgDeg) * 0.5 / (0.02 + 0.98*g.Uniform()))
	return max(min(deg, rows/2), 1)
}

// powerLawFeatures is ExtractFeatures(powerLawRows(rows, avgDeg, g)), bit
// for bit, from the same draws: each value draw is a bare Next, and each
// entry is summed as it is drawn, so nothing is stored or sorted.
func powerLawFeatures(rows, avgDeg int, g *lcg.Generator) Features {
	s := newFeatureSums(rows, rows)
	stamp := make([]int32, rows)
	for i := 0; i < rows; i++ {
		deg := powerLawDegree(rows, avgDeg, g)
		mark := int32(i + 1)
		stamp[i] = mark
		g.Next()
		s.entry(i, i)
		for k := 0; k < deg; {
			j := g.Intn(rows)
			if stamp[j] != mark {
				stamp[j] = mark
				g.Next()
				s.entry(i, j)
				k++
			}
		}
		s.row(deg + 1)
	}
	return s.features()
}

func log10(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log10(x)
}
