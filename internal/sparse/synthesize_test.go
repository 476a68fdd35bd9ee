package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/lcg"
)

func TestTable4Metadata(t *testing.T) {
	ds := Table4()
	if len(ds) != 5 {
		t.Fatalf("Table 4 has %d entries, want 5", len(ds))
	}
	want := map[string][2]int{
		"spmsrts":        {29995, 229947},
		"Chevron1":       {37365, 330633},
		"raefsky3":       {21200, 1488768},
		"conf5_4-8x8-10": {49152, 1916928},
		"bcsstk39":       {46772, 2089294},
	}
	for _, d := range ds {
		w, ok := want[d.Name]
		if !ok {
			t.Errorf("unexpected matrix %q", d.Name)
			continue
		}
		if d.Rows != w[0] || d.Nonzeros != w[1] {
			t.Errorf("%s: %d rows / %d nnz, want %d / %d",
				d.Name, d.Rows, d.Nonzeros, w[0], w[1])
		}
	}
}

func TestSynthesizeMatchesPublishedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 synthesis in -short mode")
	}
	for _, d := range Table4() {
		m, err := Synthesize(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if m.Rows != d.Rows {
			t.Errorf("%s: %d rows, want exactly %d", d.Name, m.Rows, d.Rows)
		}
		rel := math.Abs(float64(m.NNZ()-d.Nonzeros)) / float64(d.Nonzeros)
		if rel > 0.30 {
			t.Errorf("%s: %d nnz, want within 30%% of %d (off by %.0f%%)",
				d.Name, m.NNZ(), d.Nonzeros, rel*100)
		}
	}
}

func TestSynthesizeQCDExact(t *testing.T) {
	if testing.Short() {
		t.Skip("QCD synthesis in -short mode")
	}
	m, err := Synthesize("conf5_4-8x8-10")
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 1916928 {
		t.Fatalf("QCD nnz = %d, want exactly 1916928", m.NNZ())
	}
	for i := 0; i < m.Rows; i += 1000 {
		if m.RowNNZ(i) != 39 {
			t.Fatalf("QCD row %d has %d nnz, want 39", i, m.RowNNZ(i))
		}
	}
}

func TestSynthesizeUnknown(t *testing.T) {
	if _, err := Synthesize("nope"); err == nil {
		t.Fatal("expected error for unknown matrix")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, _ := Synthesize("spmsrts")
	b, _ := Synthesize("spmsrts")
	if a.NNZ() != b.NNZ() {
		t.Fatal("nondeterministic synthesis")
	}
	for k := 0; k < a.NNZ(); k += 997 {
		if a.Vals[k] != b.Vals[k] || a.ColIdx[k] != b.ColIdx[k] {
			t.Fatal("nondeterministic values")
		}
	}
}

func TestExtractFeatures(t *testing.T) {
	m := randomCSR(t, 500, 500, 5000, 41)
	f := ExtractFeatures(m)
	if math.Abs(f.AvgRowDegree-float64(m.NNZ())/500) > 1e-12 {
		t.Errorf("avg degree = %v", f.AvgRowDegree)
	}
	if f.LogRows < 2.69 || f.LogRows > 2.71 {
		t.Errorf("logRows = %v, want ≈2.7", f.LogRows)
	}
	if f.RowDegreeCV < 0 {
		t.Error("negative CV")
	}
	if f.MaxAvgRatio < 1 {
		t.Errorf("max/avg ratio %v < 1", f.MaxAvgRatio)
	}
	if f.BandFraction < 0 || f.BandFraction > 1 {
		t.Errorf("band fraction %v out of [0,1]", f.BandFraction)
	}
	if f.BlockFill <= 0 || f.BlockFill > 1 {
		t.Errorf("block fill %v out of (0,1]", f.BlockFill)
	}
	if len(f.Vector()) != len(FeatureNames()) {
		t.Error("Vector / FeatureNames length mismatch")
	}
}

func TestFeatureContrast(t *testing.T) {
	// A banded matrix must show a much smaller band fraction than a random
	// one, and a block matrix a higher block fill than a scattered one.
	g := bandedForTest(t)
	r := randomCSR(t, 1000, 1000, 8000, 7)
	fb, fr := ExtractFeatures(g), ExtractFeatures(r)
	if fb.BandFraction >= fr.BandFraction/4 {
		t.Errorf("banded band fraction %v not ≪ random %v", fb.BandFraction, fr.BandFraction)
	}
}

func bandedForTest(t *testing.T) *CSR {
	t.Helper()
	coo := NewCOO(1000, 1000)
	for i := 0; i < 1000; i++ {
		for j := i - 2; j <= i+2; j++ {
			if j >= 0 && j < 1000 {
				coo.Add(i, j, 1)
			}
		}
	}
	return coo.ToCSR()
}

func TestCorpus(t *testing.T) {
	c := Corpus(12, 1)
	if len(c) != 12 {
		t.Fatalf("corpus size %d, want 12", len(c))
	}
	for i, m := range c {
		if err := m.Validate(); err != nil {
			t.Fatalf("corpus[%d]: %v", i, err)
		}
		if m.NNZ() == 0 {
			t.Fatalf("corpus[%d] empty", i)
		}
	}
}

func TestCorpusDiversity(t *testing.T) {
	c := Corpus(8, 2)
	// Band fractions should differ across classes.
	var min, max float64 = math.Inf(1), math.Inf(-1)
	for _, m := range c {
		f := ExtractFeatures(m)
		if f.BandFraction < min {
			min = f.BandFraction
		}
		if f.BandFraction > max {
			max = f.BandFraction
		}
	}
	if max < 4*min {
		t.Errorf("corpus band fractions too uniform: [%v, %v]", min, max)
	}
}

// bandedCOO and blockBandedCOO are the COO + ToCSR builders banded and
// blockBanded replaced: the same draws in the same order, sorted and
// deduplicated by ToCSR. They are the bitwise oracles for the direct CSR
// builders.
func bandedCOO(rows, hb int, keep float64, mixedSign bool, g *lcg.Generator) *CSR {
	coo := NewCOO(rows, rows)
	for i := 0; i < rows; i++ {
		for j := i - hb; j <= i+hb; j++ {
			if j < 0 || j >= rows {
				continue
			}
			if j != i && g.Uniform() > keep {
				continue
			}
			v := g.Symmetric()
			if !mixedSign && v < 0 {
				v = -v
			}
			if j == i {
				v += float64(2 * hb)
			}
			coo.Add(i, j, v)
		}
	}
	return coo.ToCSR()
}

func blockBandedCOO(rows, bs, blocksPerRow int, g *lcg.Generator) *CSR {
	coo := NewCOO(rows, rows)
	brows := (rows + bs - 1) / bs
	half := blocksPerRow / 2
	for bi := 0; bi < brows; bi++ {
		for bj := bi - half; bj <= bi+half; bj++ {
			if bj < 0 || bj >= brows {
				continue
			}
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
					coo.Add(i, j, v)
				}
			}
		}
	}
	return coo.ToCSR()
}

// oracleClass is synthesizeClass with the COO oracles in place of banded
// and blockBanded.
func oracleClass(d Dataset, g *lcg.Generator) *CSR {
	switch d.Class {
	case "banded-indefinite":
		return bandedCOO(d.Rows, 3, 0.96, true, g)
	case "banded-seismic":
		return bandedCOO(d.Rows, 4, 0.93, false, g)
	case "block-fluid":
		return blockBandedCOO(d.Rows, 8, 9, g)
	case "block-stiffness":
		return blockBandedCOO(d.Rows, 6, 8, g)
	}
	return synthesizeClass(d, g)
}

// oracleCorpus is CorpusEach with the COO oracles, collected.
func oracleCorpus(n int, seed int64) []*CSR {
	g := lcg.New(seed)
	var out []*CSR
	for i := 0; i < n; i++ {
		rows := 256 << g.Intn(9)
		rows += g.Intn(rows)
		switch i % 8 {
		case 0, 1, 2:
			out = append(out, bandedCOO(rows, 1+g.Intn(6), 0.6+0.4*g.Uniform(), i%6 == 0, g))
		case 3, 4, 5:
			bs := 2 + g.Intn(7)
			out = append(out, blockBandedCOO(rows, bs, 3+g.Intn(7), g))
		case 6:
			d := 4 + g.Intn(13)
			out = append(out, lattice4D([4]int{d, d, d, 2 + g.Intn(5)}, g))
		default:
			out = append(out, powerLawRows(min(rows, 16384), 2+g.Intn(12), g))
		}
	}
	return out
}

// requireSameCSR fails unless got and want agree bit for bit.
func requireSameCSR(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, oracle %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		t.Fatalf("%s: RowPtr differs from the oracle", what)
	}
	if !slices.Equal(got.ColIdx, want.ColIdx) {
		t.Fatalf("%s: ColIdx differs from the oracle", what)
	}
	if len(got.Vals) != len(want.Vals) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got.Vals), len(want.Vals))
	}
	for k := range want.Vals {
		if math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			t.Fatalf("%s: Vals[%d] = %v, oracle %v", what, k, got.Vals[k], want.Vals[k])
		}
	}
}

// requireClipped fails unless a direct builder's output slices hold no
// spare capacity.
func requireClipped(t *testing.T, what string, m *CSR) {
	t.Helper()
	if cap(m.ColIdx) != len(m.ColIdx) || cap(m.Vals) != len(m.Vals) {
		t.Fatalf("%s: slices not clipped (cap %d/%d, len %d)",
			what, cap(m.ColIdx), cap(m.Vals), len(m.ColIdx))
	}
}

func TestTable4MatchesCOOOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 synthesis in -short mode")
	}
	for _, d := range Table4() {
		seed := int64(len(d.Name))*7919 + int64(d.Rows)
		got := synthesizeClass(d, lcg.New(seed))
		requireSameCSR(t, d.Name, got, oracleClass(d, lcg.New(seed)))
		requireClipped(t, d.Name, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
}

func TestCorpusMatchesCOOOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("64-matrix corpus synthesis in -short mode")
	}
	want := oracleCorpus(64, 2)
	got := Corpus(64, 2)
	if len(got) != len(want) {
		t.Fatalf("corpus size %d, oracle %d", len(got), len(want))
	}
	var each []*CSR
	CorpusEach(64, 2, func(m *CSR) { each = append(each, m) })
	if len(each) != len(got) {
		t.Fatalf("CorpusEach yielded %d matrices, Corpus %d", len(each), len(got))
	}
	for i := range want {
		what := fmt.Sprintf("corpus[%d]", i)
		requireSameCSR(t, what, got[i], want[i])
		requireSameCSR(t, what+" via CorpusEach", each[i], want[i])
		if i%8 < 6 { // banded and blockBanded
			requireClipped(t, what, got[i])
		}
		fill := ExtractFeatures(got[i]).BlockFill
		mbsr := ToMBSR(got[i]).FillRatio(got[i].NNZ())
		if math.Float64bits(fill) != math.Float64bits(mbsr) {
			t.Fatalf("%s: BlockFill %v, ToMBSR fill ratio %v", what, fill, mbsr)
		}
	}
}

// extractFeaturesTwoPass is the ExtractFeatures the one-sweep version
// replaced, kept as its oracle: a row-degree loop, a band-distance loop,
// then ToMBSR's block count (countBlocks) as a third pass.
func extractFeaturesTwoPass(m *CSR) Features {
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
	stamp := make([]int32, (m.Cols+BlockSize-1)/BlockSize)
	f.BlockFill = fillRatio(m.NNZ(), countBlocks(m, stamp, nil))
	return f
}

// TestExtractFeaturesMatchesTwoPass pins the one-sweep ExtractFeatures to
// its two-pass oracle, bit for bit, over the digest corpus (every matrix
// in full) and the Table 4 matrices.
func TestExtractFeaturesMatchesTwoPass(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus synthesis in -short mode")
	}
	i := 0
	CorpusEach(digestCorpusSize, digestCorpusSeed, func(m *CSR) {
		requireSameFeatures(t, fmt.Sprintf("corpus[%d]", i), ExtractFeatures(m), extractFeaturesTwoPass(m))
		i++
	})
	for _, d := range Table4() {
		m, err := Synthesize(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		requireSameFeatures(t, d.Name, ExtractFeatures(m), extractFeaturesTwoPass(m))
	}
	m := randomCSR(t, 333, 517, 4000, 9) // rectangular, scattered
	requireSameFeatures(t, "randomCSR", ExtractFeatures(m), extractFeaturesTwoPass(m))
}
