package sparse

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/lcg"
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

// TestCorpusFeaturesMatchCorpusEach pins CorpusFeatures, which builds no
// matrix, to ExtractFeatures over the full CorpusEach synthesis.
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
			got := CorpusFeatures(tc.n, tc.seed)
			if len(got) != len(want) {
				t.Fatalf("%d rows, oracle %d", len(got), len(want))
			}
			for i := range want {
				requireSameFeatures(t, fmt.Sprintf("matrix %d", i), got[i], want[i])
			}
		})
	}
}

// FuzzCorpusFeatures checks each corpus class's feature path — banded and
// power-law streamed from their draws, block-banded and lattice from their
// geometry — against ExtractFeatures of the full build, bit for bit, and
// requires both to leave the generator in the same state. The sizes reach
// past the corpus's draw ranges: row counts that are no multiple of 4 or
// of the block edge, one or two blocks per row, lattice extents 1–6 (where
// offsets collide) and power-law matrices of a few rows.
func FuzzCorpusFeatures(f *testing.F) {
	f.Add(uint8(0), uint16(301), uint8(3), uint8(180), int64(1))  // banded
	f.Add(uint8(0), uint16(6), uint8(9), uint8(255), int64(2))    // band wider than the matrix
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0), int64(3))      // one row, diagonal only
	f.Add(uint8(1), uint16(777), uint8(4), uint8(3), int64(4))    // bs 5, bpr 4 (even)
	f.Add(uint8(1), uint16(9), uint8(3), uint8(6), int64(5))      // bs 4, fewer rows than the band
	f.Add(uint8(1), uint16(302), uint8(2), uint8(0), int64(6))    // bs 3, 1 block per row
	f.Add(uint8(1), uint16(101), uint8(0), uint8(1), int64(7))    // bs 1, bpr 2
	f.Add(uint8(2), uint16(0), uint8(1), uint8(32), int64(8))     // lattice 2×1×3×6
	f.Add(uint8(2), uint16(0), uint8(0), uint8(0), int64(9))      // lattice 1×1×1×1
	f.Add(uint8(2), uint16(0), uint8(29), uint8(23), int64(10))   // lattice 6×5×6×4
	f.Add(uint8(3), uint16(299), uint8(0), uint8(0), int64(11))   // power law, 2 rows
	f.Add(uint8(3), uint16(4000), uint8(12), uint8(0), int64(12)) // power law, 3 rows
	f.Fuzz(func(t *testing.T, class uint8, rows uint16, a, b uint8, seed int64) {
		n := int(rows)%2000 + 1
		var what string
		var c corpusMatrix
		switch class % 4 {
		case 0:
			hb, keep := int(a)%10, float64(b)/255
			what = fmt.Sprintf("banded(%d, %d, %v)", n, hb, keep)
			c = corpusMatrix{
				build:    func(g *lcg.Generator) *CSR { return banded(n, hb, keep, a%2 == 0, g) },
				features: func(g *lcg.Generator) Features { return bandedFeatures(n, hb, keep, g) },
			}
		case 1:
			bs, bpr := int(a)%9+1, int(b)%10+1
			what = fmt.Sprintf("blockBanded(%d, %d, %d)", n, bs, bpr)
			c = corpusMatrix{
				build:    func(g *lcg.Generator) *CSR { return blockBanded(n, bs, bpr, g) },
				features: func(g *lcg.Generator) Features { return blockBandedFeatures(n, bs, bpr, g) },
			}
		case 2:
			dims := [4]int{int(a)%6 + 1, int(a/6)%6 + 1, int(b)%6 + 1, int(b/6)%6 + 1}
			what = fmt.Sprintf("lattice4D(%v)", dims)
			c = corpusMatrix{
				build:    func(g *lcg.Generator) *CSR { return lattice4D(dims, g) },
				features: func(g *lcg.Generator) Features { return lattice4DFeatures(dims, g) },
			}
		default:
			n, avgDeg := n%300+2, int(a)%14+1
			what = fmt.Sprintf("powerLawRows(%d, %d)", n, avgDeg)
			c = corpusMatrix{
				build:    func(g *lcg.Generator) *CSR { return powerLawRows(n, avgDeg, g) },
				features: func(g *lcg.Generator) Features { return powerLawFeatures(n, avgDeg, g) },
			}
		}
		gb, gf := lcg.New(seed), lcg.New(seed)
		m := c.build(gb)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireSameFeatures(t, what, c.features(gf), ExtractFeatures(m))
		if *gf != *gb {
			t.Fatalf("%s: the feature path left the generator elsewhere", what)
		}
	})
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

// TestBandedFeaturesKeepTie pins bandedFeatures' integer keep threshold at
// a tie: keep is exactly the Uniform value of entry (0, 1)'s keep draw
// (the seed's second draw, after the diagonal's value draw), so the entry
// is kept (a draw is rejected only above keep). Features and the
// generator's final state must match ExtractFeatures(banded(…)).
func TestBandedFeaturesKeepTie(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := lcg.New(seed)
		g.Next()
		keep := g.Uniform()
		gb, gf := lcg.New(seed), lcg.New(seed)
		m := banded(301, 3, keep, false, gb)
		if m.ColIdx[1] != 1 {
			t.Fatalf("seed %d: banded rejected the entry whose keep draw equals keep %v", seed, keep)
		}
		what := fmt.Sprintf("bandedFeatures(301, 3, %v) seed %d", keep, seed)
		requireSameFeatures(t, what, bandedFeatures(301, 3, keep, gf), ExtractFeatures(m))
		if *gf != *gb {
			t.Fatalf("%s: left the generator elsewhere", what)
		}
	}
}
