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
			v := g.Symmetric()
			if !mixedSign && v < 0 {
				v = -v
			}
			if j == i {
				v += float64(2 * hb) // diagonal weight for realism
			}
			colIdx = append(colIdx, int32(j))
			vals = append(vals, v)
		}
		m.RowPtr[i+1] = len(colIdx)
	}
	m.ColIdx, m.Vals = slices.Clip(colIdx), slices.Clip(vals)
	return m
}

// blockBanded generates a block-banded matrix of dense bs×bs blocks with
// blocksPerRow block-columns per block-row centered on the diagonal.
// Every row of block row bi spans the same column range, so row lengths
// come from the block geometry alone; each entry, drawn block by block,
// lands at its row's offset of its column inside that range.
func blockBanded(rows, bs, blocksPerRow int, g *lcg.Generator) *CSR {
	brows := (rows + bs - 1) / bs
	half := blocksPerRow / 2
	// colRange returns the first column of block row bi's band and one past
	// its last.
	colRange := func(bi int) (lo, hi int) {
		return max(bi-half, 0) * bs, min(min(bi+half, brows-1)*bs+bs, rows)
	}
	m := &CSR{Rows: rows, Cols: rows, RowPtr: make([]int, rows+1)}
	for i := 0; i < rows; i++ {
		lo, hi := colRange(i / bs)
		m.RowPtr[i+1] = m.RowPtr[i] + hi - lo
	}
	m.ColIdx = make([]int32, m.RowPtr[rows])
	m.Vals = make([]float64, m.RowPtr[rows])
	for bi := 0; bi < brows; bi++ {
		lo, _ := colRange(bi)
		for bj := max(bi-half, 0); bj <= min(bi+half, brows-1); bj++ {
			for di := 0; di < bs; di++ {
				for dj := 0; dj < bs; dj++ {
					i, j := bi*bs+di, bj*bs+dj
					if i >= rows || j >= rows {
						continue
					}
					v := g.Symmetric()
					if i == j {
						v += float64(bs * blocksPerRow)
					}
					k := m.RowPtr[i] + j - lo
					m.ColIdx[k] = int32(j)
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
						var nb [4]int
						for d := 0; d < 4; d++ {
							nb[d] = ((c[d]+o[d])%dims[d] + dims[d]) % dims[d]
						}
						nbrs = append(nbrs, int32(idx(nb)))
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

// lattice4D generates a matrix on a 4D periodic lattice where each site
// couples to itself and to 38 fixed torus offsets (±eᵢ, ±2eᵢ with 3-spin
// structure folded in), giving exactly 39 nonzeros per row — the regular
// Wilson-Dirac structure of QCD matrices such as conf5_4-8x8-10.
func lattice4D(dims [4]int, g *lcg.Generator) *CSR {
	n := dims[0] * dims[1] * dims[2] * dims[3]
	idx := func(c [4]int) int {
		return ((c[0]*dims[1]+c[1])*dims[2]+c[2])*dims[3] + c[3]
	}
	// 38 distinct nonzero offsets + the diagonal = 39 per row.
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

	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	m.ColIdx = make([]int32, 0, n*39)
	m.Vals = make([]float64, 0, n*39)
	var c [4]int
	for c[0] = 0; c[0] < dims[0]; c[0]++ {
		for c[1] = 0; c[1] < dims[1]; c[1]++ {
			for c[2] = 0; c[2] < dims[2]; c[2]++ {
				for c[3] = 0; c[3] < dims[3]; c[3]++ {
					i := idx(c)
					cols := make([]int32, 0, 39)
					cols = append(cols, int32(i))
					for _, o := range offsets {
						var nb [4]int
						for d := 0; d < 4; d++ {
							nb[d] = ((c[d]+o[d])%dims[d] + dims[d]) % dims[d]
						}
						cols = append(cols, int32(idx(nb)))
					}
					// On small lattices distinct offsets can wrap onto the
					// same site, so sort and dedupe for CSR validity.
					// Offsets move at most 2 along an axis, so only an
					// extent below 5 collides, and Corpus draws extents
					// down to 2. (Table 4's QCD matrix comes from
					// latticeQCD, not from here.)
					insertionSortInt32(cols)
					cols = dedupeSortedInt32(cols)
					for _, j := range cols {
						v := g.Symmetric()
						if int(j) == i {
							v += 8
						}
						m.ColIdx = append(m.ColIdx, j)
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

// ExtractFeatures computes the Figure 10b feature vector for a matrix.
func ExtractFeatures(m *CSR) Features {
	n := float64(m.Rows)
	nnz := float64(m.NNZ())
	var f Features
	f.LogRows = log10(n)
	f.LogNNZ = log10(nnz)
	f.AvgRowDegree = nnz / n

	var sumSq, maxDeg float64
	for i := 0; i < m.Rows; i++ {
		d := float64(m.RowNNZ(i))
		sumSq += d * d
		if d > maxDeg {
			maxDeg = d
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

	var distSum float64
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d := float64(int(m.ColIdx[k]) - i)
			if d < 0 {
				d = -d
			}
			distSum += d
		}
	}
	if nnz > 0 && n > 1 {
		f.BandFraction = distSum / nnz / (n - 1)
	}
	f.BlockFill = blockFill(m)
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
// as fn returns, so a caller that only reduces each matrix (Figure 10b's
// feature extraction) never holds more than one.
func CorpusEach(n int, seed int64, fn func(*CSR)) {
	g := lcg.New(seed)
	for i := 0; i < n; i++ {
		// Log-uniform rows in [256, 128Ki), mirroring the collection's
		// size spread so the Table 4 instances land inside the cloud.
		rows := 256 << g.Intn(9)
		rows += g.Intn(rows)
		// Composition mirrors the SuiteSparse collection: mostly banded
		// and blocked FEM-style matrices, some lattices, a tail of
		// scattered (power-law) patterns.
		switch i % 8 {
		case 0, 1, 2:
			fn(banded(rows, 1+g.Intn(6), 0.6+0.4*g.Uniform(), i%6 == 0, g))
		case 3, 4, 5:
			bs := 2 + g.Intn(7)
			fn(blockBanded(rows, bs, 3+g.Intn(7), g))
		case 6:
			d := 4 + g.Intn(13)
			fn(lattice4D([4]int{d, d, d, 2 + g.Intn(5)}, g))
		default:
			fn(powerLawRows(min(rows, 16384), 2+g.Intn(12), g))
		}
	}
}

// powerLawRows generates a matrix whose row degrees follow a heavy-tailed
// distribution (scale-free-like), the structure of web/social matrices.
func powerLawRows(rows, avgDeg int, g *lcg.Generator) *CSR {
	coo := NewCOO(rows, rows)
	for i := 0; i < rows; i++ {
		// Pareto-ish degree: avg/u with a cap.
		deg := int(float64(avgDeg) * 0.5 / (0.02 + 0.98*g.Uniform()))
		if deg > rows/2 {
			deg = rows / 2
		}
		if deg < 1 {
			deg = 1
		}
		seen := map[int]bool{i: true}
		coo.Add(i, i, g.Symmetric()+4)
		for len(seen) <= deg {
			j := g.Intn(rows)
			if !seen[j] {
				seen[j] = true
				coo.Add(i, j, g.Symmetric())
			}
		}
	}
	return coo.ToCSR()
}

func log10(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log10(x)
}
