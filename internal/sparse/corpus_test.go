package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/lcg"
	"repro/internal/par"
)

// requireSameFeatures fails unless got and want agree bit for bit.
func requireSameFeatures(t *testing.T, what string, got, want Features) {
	t.Helper()
	g, w := got.Vector(), want.Vector()
	for k := range w {
		if math.Float64bits(g[k]) != math.Float64bits(w[k]) {
			t.Fatalf("%s: %s = %v, oracle %v", what, FeatureNames()[k], g[k], w[k])
		}
	}
}

// TestCorpusFeaturesMatchCorpusEach pins the pooled, pattern-only
// CorpusFeatures to ExtractFeatures over the full CorpusEach synthesis,
// for one and several workers. The 40-matrix case is small enough for
// make race-quick.
func TestCorpusFeaturesMatchCorpusEach(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{{40, 3}, {199, 2}, {97, 11}, {64, 20260817}} {
		t.Run(fmt.Sprintf("%d_%d", tc.n, tc.seed), func(t *testing.T) {
			if testing.Short() && tc.n > 40 {
				t.Skip("corpus synthesis in -short mode")
			}
			var want []Features
			CorpusEach(tc.n, tc.seed, func(m *CSR) { want = append(want, ExtractFeatures(m)) })
			for _, workers := range []int{1, 3} {
				prev := par.SetWorkers(workers)
				got := CorpusFeatures(tc.n, tc.seed)
				par.SetWorkers(prev)
				if len(got) != len(want) {
					t.Fatalf("%d workers: %d rows, oracle %d", workers, len(got), len(want))
				}
				for i := range want {
					requireSameFeatures(t, fmt.Sprintf("%d workers, matrix %d", workers, i), got[i], want[i])
				}
			}
		})
	}
}

// TestPatternPathsMatchFullBuild pins each generator's pattern path to its
// full build: the same RowPtr and ColIdx, no values, and — for the
// generators whose draws are skipped — an entry count equal to the number
// of draws the full build takes.
func TestPatternPathsMatchFullBuild(t *testing.T) {
	samePattern := func(what string, got, want *CSR) {
		t.Helper()
		if got.Rows != want.Rows || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) {
			t.Fatalf("%s: pattern differs from the full build", what)
		}
		if got.Vals != nil {
			t.Fatalf("%s: pattern path stored %d values", what, len(got.Vals))
		}
	}
	for _, tc := range []struct{ rows, bs, bpr int }{{300, 2, 3}, {1000, 8, 9}, {777, 5, 4}, {9, 4, 7}} {
		what := fmt.Sprintf("blockBanded(%d, %d, %d)", tc.rows, tc.bs, tc.bpr)
		g := lcg.New(5)
		full := blockBanded(tc.rows, tc.bs, tc.bpr, g)
		samePattern(what, blockBanded(tc.rows, tc.bs, tc.bpr, nil), full)
		skipped := lcg.New(5)
		skipped.Skip(newBlockBand(tc.rows, tc.bs, tc.bpr).nnz())
		if *skipped != *g || full.NNZ() != newBlockBand(tc.rows, tc.bs, tc.bpr).nnz() {
			t.Fatalf("%s: nnz %d does not count its draws", what, newBlockBand(tc.rows, tc.bs, tc.bpr).nnz())
		}
	}
	for _, dims := range [][4]int{{2, 2, 2, 2}, {4, 4, 4, 3}, {5, 5, 5, 2}, {7, 7, 7, 6}} {
		what := fmt.Sprintf("lattice4D(%v)", dims)
		g := lcg.New(5)
		full := lattice4D(dims, g)
		samePattern(what, lattice4D(dims, nil), full)
		skipped := lcg.New(5)
		skipped.Skip(lattice4DNNZ(dims))
		if *skipped != *g || full.NNZ() != lattice4DNNZ(dims) {
			t.Fatalf("%s: lattice4DNNZ %d does not count its draws", what, lattice4DNNZ(dims))
		}
	}
	for _, hb := range []int{1, 3, 6} {
		what := fmt.Sprintf("banded(hb %d)", hb)
		g, gp := lcg.New(5), lcg.New(5)
		full := banded(2000, hb, 0.7, hb == 3, g, true)
		samePattern(what, banded(2000, hb, 0.7, hb == 3, gp, false), full)
		if *gp != *g {
			t.Fatalf("%s: pattern path left the generator elsewhere", what)
		}
	}
}

// powerLawRowsMap is the map-and-COO powerLawRows the stamp-array version
// replaced: the bitwise oracle for its draws and its CSR.
func powerLawRowsMap(rows, avgDeg int, g *lcg.Generator) *CSR {
	coo := NewCOO(rows, rows)
	for i := 0; i < rows; i++ {
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

func TestPowerLawRowsMatchesMapOracle(t *testing.T) {
	for _, tc := range []struct{ rows, avgDeg int }{{2, 2}, {3, 5}, {257, 2}, {4096, 13}, {16384, 7}} {
		g, gm := lcg.New(int64(tc.rows)), lcg.New(int64(tc.rows))
		what := fmt.Sprintf("powerLawRows(%d, %d)", tc.rows, tc.avgDeg)
		requireSameCSR(t, what, powerLawRows(tc.rows, tc.avgDeg, g), powerLawRowsMap(tc.rows, tc.avgDeg, gm))
		if *g != *gm {
			t.Fatalf("%s: generator state differs from the oracle's", what)
		}
	}
}
