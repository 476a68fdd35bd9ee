package graph

import (
	"math"
	"slices"
	"testing"

	"repro/internal/lcg"
)

func TestTable3Metadata(t *testing.T) {
	ds := Table3()
	if len(ds) != 5 {
		t.Fatalf("Table 3 has %d entries, want 5", len(ds))
	}
	want := map[string][2]int{
		"wikipedia-20070206": {3566907, 90043704},
		"mycielskian17":      {98303, 100245742},
		"wb-edu":             {9845725, 112468163},
		"kron_g500-logn21":   {2097152, 182082942},
		"com-Orkut":          {3072441, 234370166},
	}
	for _, d := range ds {
		w, ok := want[d.Name]
		if !ok {
			t.Errorf("unexpected graph %q", d.Name)
			continue
		}
		if d.Vertices != w[0] || d.Edges != w[1] {
			t.Errorf("%s: %d/%d, want %d/%d", d.Name, d.Vertices, d.Edges, w[0], w[1])
		}
		if d.ScaleNote == "" {
			t.Errorf("%s: missing scale note documenting the substitution", d.Name)
		}
	}
}

func TestSynthesizeAllValid(t *testing.T) {
	for _, d := range Table3() {
		g, err := Synthesize(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if g.N < 1000 || g.Edges() < 10000 {
			t.Errorf("%s: synthesized too small (%d vertices, %d edges)",
				d.Name, g.N, g.Edges())
		}
		if g.Edges() > 6_000_000 {
			t.Errorf("%s: synthesized too large (%d edges)", d.Name, g.Edges())
		}
	}
}

func TestSynthesizeUnknown(t *testing.T) {
	if _, err := Synthesize("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, _ := Synthesize("com-Orkut")
	b, _ := Synthesize("com-Orkut")
	if a.Edges() != b.Edges() || a.N != b.N {
		t.Fatal("nondeterministic synthesis")
	}
	for k := 0; k < a.Edges(); k += 10007 {
		if a.Neighbors[k] != b.Neighbors[k] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestMycielskianRecurrence(t *testing.T) {
	// M_k: n = 2n+1 per step from n=2; m = 3m+n from m=1.
	n, m := 2, 1
	for order := 2; order <= 9; order++ {
		g := Mycielskian(order)
		if g.N != n {
			t.Fatalf("M%d has %d vertices, want %d", order, g.N, n)
		}
		if g.Edges() != 2*m {
			t.Fatalf("M%d has %d directed edges, want %d", order, g.Edges(), 2*m)
		}
		n, m = 2*n+1, 3*m+n
	}
}

func TestMycielskianTriangleFree(t *testing.T) {
	// The Mycielski construction preserves triangle-freeness.
	g := Mycielskian(6)
	for v := 0; v < g.N; v++ {
		for _, u := range g.Adj(v) {
			if int(u) <= v {
				continue
			}
			for _, w := range g.Adj(int(u)) {
				if int(w) <= int(u) {
					continue
				}
				// Is (v, w) an edge? Then v-u-w-v is a triangle.
				for _, x := range g.Adj(v) {
					if x == w {
						t.Fatalf("triangle %d-%d-%d", v, u, w)
					}
				}
			}
		}
	}
}

func TestMycielskianPanicsBelow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for order 1")
		}
	}()
	Mycielskian(1)
}

func TestRMATSkewedDegrees(t *testing.T) {
	g, _ := Synthesize("kron_g500-logn21")
	f := ExtractFeatures(g)
	if f.MaxAvgRatio < 10 {
		t.Errorf("RMAT max/avg degree ratio %v, want heavily skewed (>10)", f.MaxAvgRatio)
	}
	if f.DegreeCV < 1 {
		t.Errorf("RMAT degree CV %v, want > 1", f.DegreeCV)
	}
}

func TestWebGraphLocality(t *testing.T) {
	web, _ := Synthesize("wb-edu")
	soc, _ := Synthesize("com-Orkut")
	fw, fs := ExtractFeatures(web), ExtractFeatures(soc)
	if fw.Locality >= fs.Locality {
		t.Errorf("web locality %v should be below social %v", fw.Locality, fs.Locality)
	}
}

func TestExtractFeaturesSane(t *testing.T) {
	g := Mycielskian(8)
	f := ExtractFeatures(g)
	if math.Abs(f.AvgDegree-float64(g.Edges())/float64(g.N)) > 1e-12 {
		t.Error("avg degree wrong")
	}
	if len(f.Vector()) != len(FeatureNames()) {
		t.Error("Vector / FeatureNames mismatch")
	}
	if f.MaxAvgRatio < 1 {
		t.Error("max/avg < 1")
	}
}

func TestCorpus(t *testing.T) {
	c := Corpus(8, 5)
	if len(c) != 8 {
		t.Fatalf("corpus size %d", len(c))
	}
	for i, g := range c {
		if err := g.Validate(); err != nil {
			t.Fatalf("corpus[%d]: %v", i, err)
		}
		if g.Edges() == 0 {
			t.Fatalf("corpus[%d] empty", i)
		}
	}
}

// rmatEdgesBranchy is RMAT's edge draw as it was before the branch-free
// quadrant bits: one Uniform per level, compared against the partition
// bounds in a switch. It is the oracle for rmatEdges.
func rmatEdgesBranchy(scale, edgeFactor int, g *lcg.Generator) [][2]int32 {
	n := 1 << scale
	m := n * edgeFactor / 2
	edges := make([][2]int32, 0, m)
	for e := 0; e < m; e++ {
		var src, dst int
		for level := 0; level < scale; level++ {
			r := g.Uniform()
			switch {
			case r < 0.57:
				// quadrant a: no bits set
			case r < 0.76:
				dst |= 1 << level
			case r < 0.95:
				src |= 1 << level
			default:
				src |= 1 << level
				dst |= 1 << level
			}
		}
		edges = append(edges, [2]int32{int32(src), int32(dst)})
	}
	return edges
}

// TestRMATMatchesBranchyOracle: the branch-free draw gives the oracle's
// edge list, edge for edge, and leaves the generator where the oracle
// does, over the corpus's scales (9–11) and the Table 3 Kronecker graph's
// (15), several edge factors and seeds. Six more seeds make the first
// draw land exactly on each partition bound's threshold state and on the
// state below it, where an off-by-one threshold would show.
func TestRMATMatchesBranchyOracle(t *testing.T) {
	type rmatCase struct {
		scale, edgeFactor int
		seed              int64
	}
	cases := []rmatCase{
		{9, 4, 1}, {9, 31, 7}, {10, 4, 2}, {10, 17, 99}, {11, 8, 3}, {11, 31, 12345},
		{15, 48, 16*104729 + 2097152}, {15, 2, -5},
	}
	for _, c := range []float64{0.57, 0.76, 0.95} {
		for _, x := range []int64{lcg.Threshold(c) - 1, lcg.Threshold(c)} {
			// The generator's period is 2^31-2, so stepping 2^31-3 times
			// from x steps back once: to the seed whose first draw is x.
			g := lcg.New(x)
			g.Skip(1<<31 - 3)
			cases = append(cases, rmatCase{9, 4, g.State()})
		}
	}
	for _, tc := range cases {
		g, want := lcg.New(tc.seed), lcg.New(tc.seed)
		got, wantEdges := rmatEdges(tc.scale, tc.edgeFactor, g), rmatEdgesBranchy(tc.scale, tc.edgeFactor, want)
		if !slices.Equal(got, wantEdges) {
			t.Fatalf("RMAT(%d, %d) seed %d: edge list differs from the branchy oracle", tc.scale, tc.edgeFactor, tc.seed)
		}
		if g.State() != want.State() {
			t.Fatalf("RMAT(%d, %d) seed %d: generator at %d, oracle at %d", tc.scale, tc.edgeFactor, tc.seed, g.State(), want.State())
		}
	}
}
