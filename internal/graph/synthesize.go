package graph

import (
	"fmt"
	"math"

	"repro/internal/lcg"
)

// Dataset describes one Table 3 graph: published SuiteSparse metadata plus
// the synthesis recipe reproducing its structural class. The paper's graphs
// total >700 M directed edges; this repo synthesizes each class at reduced
// scale (≈1–2 M edges) with matching degree structure — the performance
// characterization depends on structure, not raw size, and the harness
// reports relative speedups. ScaleNote records the reduction.
type Dataset struct {
	Name      string
	Group     string
	Vertices  int // published
	Edges     int // published (directed nonzero count)
	Class     string
	ScaleNote string
}

// Table3 lists the five BFS graphs of the paper's Table 3.
func Table3() []Dataset {
	return []Dataset{
		{Name: "wikipedia-20070206", Group: "Gleich", Vertices: 3566907,
			Edges: 90043704, Class: "powerlaw-web",
			ScaleNote: "synthesized at 1/56 scale (64Ki vertices)"},
		{Name: "mycielskian17", Group: "Mycielski", Vertices: 98303,
			Edges: 100245742, Class: "mycielskian",
			ScaleNote: "exact Mycielskian construction, order 13 instead of 17"},
		{Name: "wb-edu", Group: "SNAP", Vertices: 9845725,
			Edges: 112468163, Class: "hierarchical-web",
			ScaleNote: "synthesized at 1/150 scale (64Ki vertices)"},
		{Name: "kron_g500-logn21", Group: "DIMACS10", Vertices: 2097152,
			Edges: 182082942, Class: "kronecker",
			ScaleNote: "RMAT scale 15 instead of 21, same edge factor class"},
		{Name: "com-Orkut", Group: "SNAP", Vertices: 3072441,
			Edges: 234370166, Class: "powerlaw-social",
			ScaleNote: "synthesized at 1/94 scale (32Ki vertices)"},
	}
}

// Synthesize materializes the named Table 3 graph class at reduced scale,
// deterministically.
func Synthesize(name string) (*Graph, error) {
	for _, d := range Table3() {
		if d.Name == name {
			g := lcg.New(int64(len(d.Name))*104729 + int64(d.Vertices))
			return synthesizeClass(d, g), nil
		}
	}
	return nil, fmt.Errorf("graph: unknown Table 3 graph %q", name)
}

func synthesizeClass(d Dataset, g *lcg.Generator) *Graph {
	switch d.Class {
	case "powerlaw-web":
		return powerLaw(1<<16, 12, 2.1, g)
	case "mycielskian":
		return Mycielskian(13)
	case "hierarchical-web":
		return hierarchicalWeb(1<<16, 9, g)
	case "kronecker":
		return RMAT(15, 48, g)
	case "powerlaw-social":
		return powerLaw(1<<15, 38, 2.4, g)
	default:
		panic("graph: unknown synthesis class " + d.Class)
	}
}

// Mycielskian builds the order-k Mycielskian graph M_k: M_2 = K_2 and
// M_{k+1} is the Mycielski construction over M_k (n' = 2n+1, m' = 3m+n).
// mycielskian17 in SuiteSparse is M_17; we build the same family at a lower
// order. The graph is triangle-free with growing chromatic number — a
// structure no random generator reproduces.
func Mycielskian(k int) *Graph {
	if k < 2 {
		panic("graph: Mycielskian order must be ≥ 2")
	}
	// Start from K2.
	edges := [][2]int32{{0, 1}}
	n := 2
	for order := 2; order < k; order++ {
		// Vertices: originals v_0..v_{n-1}, copies u_i = n+i, apex w = 2n.
		next := make([][2]int32, 0, 3*len(edges)+n)
		next = append(next, edges...)
		for _, e := range edges {
			v, u := e[0], e[1]
			next = append(next,
				[2]int32{v, int32(n) + u},
				[2]int32{u, int32(n) + v})
		}
		apex := int32(2 * n)
		for i := 0; i < n; i++ {
			next = append(next, [2]int32{int32(n + i), apex})
		}
		edges, n = next, 2*n+1
	}
	return Undirected(n, edges)
}

// RMAT generates a Kronecker (R-MAT) graph of 2^scale vertices with the
// Graph500 partition probabilities (a, b, c) = (0.57, 0.19, 0.19).
//
// Each level draws one uniform r and picks quadrant a (r < 0.57: no bit),
// b (r < 0.76: dst bit), c (r < 0.95: src bit) or d (both bits). Uniform is
// monotone in the raw state, so each compare is the raw draw against the
// state threshold of its bound (lcg.Threshold), and the bits are set from
// the compares without a branch: src = r ≥ 0.76 and
// dst = (r ≥ 0.57) ⊕ src ⊕ (r ≥ 0.95). The quadrant a draw selects is
// random, so a branch on it would mispredict often.
func RMAT(scale, edgeFactor int, g *lcg.Generator) *Graph {
	return Undirected(1<<scale, rmatEdges(scale, edgeFactor, g))
}

// rmatEdges draws RMAT's edge list, before symmetrization.
func rmatEdges(scale, edgeFactor int, g *lcg.Generator) [][2]int32 {
	tA, tB, tC := lcg.Threshold(0.57), lcg.Threshold(0.76), lcg.Threshold(0.95)
	m := (1 << scale) * edgeFactor / 2 // undirected edge count
	edges := make([][2]int32, m)
	for e := range edges {
		var src, dst int64
		for level := 0; level < scale; level++ {
			x := g.Next()
			s := lcg.AtLeast(x, tB)
			src |= s << level
			dst |= (lcg.AtLeast(x, tA) ^ s ^ lcg.AtLeast(x, tC)) << level
		}
		edges[e] = [2]int32{int32(src), int32(dst)}
	}
	return edges
}

// powerLaw generates an undirected graph whose degree sequence follows a
// truncated power law with the given average degree and exponent, wired with
// a configuration-model style stub matching.
func powerLaw(n, avgDeg int, exponent float64, g *lcg.Generator) *Graph {
	// Sample degrees d ∝ u^{-1/(exp-1)}, truncated, then rescale to the
	// requested average.
	deg := make([]float64, n)
	var sum float64
	maxDeg := float64(n) / 8
	for i := range deg {
		d := math.Pow(0.01+0.99*g.Uniform(), -1/(exponent-1))
		if d > maxDeg {
			d = maxDeg
		}
		deg[i] = d
		sum += d
	}
	scaleF := float64(n*avgDeg) / 2 / sum
	// Build a stub list and match stubs pseudo-randomly.
	var stubs []int32
	for i := range deg {
		k := int(deg[i]*scaleF + 0.5)
		if k < 1 {
			k = 1
		}
		for j := 0; j < k; j++ {
			stubs = append(stubs, int32(i))
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	// Fisher–Yates shuffle with the LCG.
	for i := len(stubs) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	edges := make([][2]int32, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		edges = append(edges, [2]int32{stubs[i], stubs[i+1]})
	}
	return Undirected(n, edges)
}

// hierarchicalWeb generates a web-like graph: dense intra-community links
// (pages within a site) plus sparse inter-community links, giving the high
// locality of .edu web crawls such as wb-edu.
func hierarchicalWeb(n, avgDeg int, g *lcg.Generator) *Graph {
	const community = 64
	edges := make([][2]int32, 0, n*avgDeg/2)
	m := n * avgDeg / 2
	for e := 0; e < m; e++ {
		u := g.Intn(n)
		var v int
		if g.Uniform() < 0.85 {
			// Intra-community edge.
			base := (u / community) * community
			v = base + g.Intn(community)
			if v >= n {
				v = base
			}
		} else {
			v = g.Intn(n)
		}
		edges = append(edges, [2]int32{int32(u), int32(v)})
	}
	return Undirected(n, edges)
}

// Features is the structural feature vector of the Figure 10a PCA.
type Features struct {
	LogVertices float64
	LogEdges    float64
	AvgDegree   float64
	DegreeCV    float64
	MaxAvgRatio float64
	Locality    float64 // mean normalized |u-v| over edges (label locality)
}

// ExtractFeatures computes the Figure 10a feature vector for a graph.
func ExtractFeatures(g *Graph) Features {
	n, m := float64(g.N), float64(g.Edges())
	f := Features{
		LogVertices: math.Log10(math.Max(n, 1)),
		LogEdges:    math.Log10(math.Max(m, 1)),
	}
	if n == 0 {
		return f
	}
	f.AvgDegree = m / n
	var sumSq, maxDeg float64
	for v := 0; v < g.N; v++ {
		d := float64(g.Degree(v))
		sumSq += d * d
		if d > maxDeg {
			maxDeg = d
		}
	}
	variance := sumSq/n - f.AvgDegree*f.AvgDegree
	if variance < 0 {
		variance = 0
	}
	if f.AvgDegree > 0 {
		f.DegreeCV = math.Sqrt(variance) / f.AvgDegree
		f.MaxAvgRatio = maxDeg / f.AvgDegree
	}
	var dist float64
	for v := 0; v < g.N; v++ {
		for _, u := range g.Adj(v) {
			dist += math.Abs(float64(int(u) - v))
		}
	}
	if m > 0 && n > 1 {
		f.Locality = dist / m / (n - 1)
	}
	return f
}

// Vector flattens the features in a fixed order for PCA.
func (f Features) Vector() []float64 {
	return []float64{f.LogVertices, f.LogEdges, f.AvgDegree, f.DegreeCV,
		f.MaxAvgRatio, f.Locality}
}

// FeatureNames labels the Vector components.
func FeatureNames() []string {
	return []string{"logV", "logE", "avgDeg", "degCV", "maxAvg", "locality"}
}

// Corpus generates n small synthetic graphs spanning the classes above,
// standing in for the 499-graph SuiteSparse sweep of Figure 10a.
func Corpus(n int, seed int64) []*Graph {
	g := lcg.New(seed)
	out := make([]*Graph, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			out = append(out, powerLaw(512+g.Intn(1536), 4+g.Intn(24), 2.0+g.Uniform(), g))
		case 1:
			out = append(out, RMAT(9+g.Intn(3), 4+g.Intn(28), g))
		case 2:
			out = append(out, hierarchicalWeb(512+g.Intn(1536), 4+g.Intn(12), g))
		default:
			out = append(out, Mycielskian(7+g.Intn(4)))
		}
	}
	return out
}
