package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lcg"
)

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {0, 1}, {2, 2}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 3 {
		t.Fatalf("edges = %d, want 3 (dup and self-loop removed)", g.Edges())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("degrees wrong")
	}
	adj := g.Adj(0)
	if len(adj) != 2 || adj[0] != 1 || adj[1] != 2 {
		t.Fatalf("Adj(0) = %v", adj)
	}
}

// fromEdgesSort is the comparison-sort CSR build FromEdges replaced, kept
// as its oracle: count the out-degrees, scatter the edges into their rows,
// then sort each row and compact it in place.
func fromEdgesSort(n int, edges [][2]int32) *Graph {
	g := &Graph{N: n, Offsets: make([]int, n+1)}
	for _, e := range edges {
		if e[0] != e[1] {
			g.Offsets[e[0]+1]++
		}
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
	}
	if g.Offsets[n] == 0 {
		return g
	}
	nb := make([]int32, g.Offsets[n])
	next := make([]int, n)
	copy(next, g.Offsets[:n])
	for _, e := range edges {
		if e[0] != e[1] {
			nb[next[e[0]]] = e[1]
			next[e[0]]++
		}
	}
	w, lo := 0, 0
	for v := 0; v < n; v++ {
		hi := g.Offsets[v+1]
		row := nb[lo:hi]
		slices.Sort(row)
		start := w
		for _, u := range row {
			if w == start || nb[w-1] != u {
				nb[w] = u
				w++
			}
		}
		g.Offsets[v+1] = w
		lo = hi
	}
	g.Neighbors = nb[:w]
	return g
}

// symmetric returns edges followed by each edge reversed, in the
// interleaved order Undirected once built before sorting.
func symmetric(edges [][2]int32) [][2]int32 {
	sym := make([][2]int32, 0, 2*len(edges))
	for _, e := range edges {
		sym = append(sym, e, [2]int32{e[1], e[0]})
	}
	return sym
}

// sameGraph fails unless got and want have equal offsets and neighbor
// storage, nil-ness included.
func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Neighbors, want.Neighbors) {
		t.Fatalf("%s = %v %v, want %v %v", what, got.Offsets, got.Neighbors, want.Offsets, want.Neighbors)
	}
	if (got.Neighbors == nil) != (want.Neighbors == nil) {
		t.Fatalf("%s: Neighbors nil = %v, want %v", what, got.Neighbors == nil, want.Neighbors == nil)
	}
}

// FuzzFromEdges checks the sort-free CSR build against two oracles: the
// comparison-sort build it replaced (fromEdgesSort) and a map-based
// reference, per vertex the set of distinct non-self targets, ascending.
// Undirected is checked against fromEdgesSort over the symmetric list. The
// fuzzer picks the vertex count (0..64; an empty graph takes no edges) and
// the edge list, two bytes per edge taken modulo the vertex count.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0})                                    // n == 1, self-loops only
	f.Add(uint8(3), []byte{0, 1, 0, 2, 1, 3, 0, 1, 2, 2})                  // TestFromEdges' shape
	f.Add(uint8(7), []byte{5, 1, 5, 1, 5, 1, 0, 7, 7, 0})                  // duplicates, empty rows
	f.Add(uint8(63), []byte{})                                             // no edges
	f.Add(uint8(9), []byte{9, 0, 8, 1, 7, 2, 6, 3, 5, 4, 4})               // odd byte dropped
	f.Add(uint8(64), []byte{1, 2, 3, 4})                                   // n == 0
	f.Add(uint8(40), []byte{3, 9, 9, 3, 3, 9, 0, 39, 39, 0, 5, 5, 20, 21}) // both directions, isolated vertices
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := (int(nb) + 1) % 65
		var edges [][2]int32
		for i := 0; n > 0 && i+1 < len(data); i += 2 {
			edges = append(edges, [2]int32{int32(int(data[i]) % n), int32(int(data[i+1]) % n)})
		}
		ref := make([]map[int32]bool, n)
		for _, e := range edges {
			if e[0] == e[1] {
				continue
			}
			if ref[e[0]] == nil {
				ref[e[0]] = map[int32]bool{}
			}
			ref[e[0]][e[1]] = true
		}
		want := &Graph{N: n, Offsets: make([]int, n+1)}
		for v := 0; v < n; v++ {
			row := make([]int32, 0, len(ref[v]))
			for u := range ref[v] {
				row = append(row, u)
			}
			slices.Sort(row)
			want.Neighbors = append(want.Neighbors, row...)
			want.Offsets[v+1] = len(want.Neighbors)
		}

		what := fmt.Sprintf("FromEdges(%d, %v)", n, edges)
		g := FromEdges(n, edges)
		sameGraph(t, what, g, fromEdgesSort(n, edges))
		sameGraph(t, what+" vs map reference", g, want)
		sameGraph(t, fmt.Sprintf("Undirected(%d, %v)", n, edges), Undirected(n, edges), fromEdgesSort(n, symmetric(edges)))
	})
}

// TestBuildsMatchSortOracle pins the sort-free builds to fromEdgesSort on
// campaign-sized inputs. Each Table 3 graph's edges, shuffled, with every
// fifth edge repeated and a self-loop per hundred, are built as directed
// (FromEdges), and their one-directional half (u < v) as undirected.
func TestBuildsMatchSortOracle(t *testing.T) {
	for _, d := range Table3() {
		g, err := Synthesize(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		gen := lcg.New(7)
		var edges, half [][2]int32
		for v := 0; v < g.N; v++ {
			for _, u := range g.Adj(v) {
				e := [2]int32{int32(v), u}
				edges = append(edges, e)
				if len(edges)%5 == 0 {
					edges = append(edges, e)
				}
				if len(edges)%100 == 0 {
					edges = append(edges, [2]int32{u, u})
				}
				if int32(v) < u {
					half = append(half, e)
				}
			}
		}
		for i := len(edges) - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		sameGraph(t, "FromEdges "+d.Name, FromEdges(g.N, edges), fromEdgesSort(g.N, edges))
		sameGraph(t, "Undirected "+d.Name, Undirected(g.N, half), fromEdgesSort(g.N, symmetric(half)))
		sameGraph(t, "Undirected half of "+d.Name, Undirected(g.N, half), g)
	}
}

// FuzzBlockCount pins BlockCount, the count-only pass, to the block count
// of the slice set ToSliceSet builds, on random edge lists over up to 16
// column segments.
func FuzzBlockCount(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(15), []byte{0, 1, 0, 200, 1, 3, 7, 255, 2, 2})
	f.Add(uint8(255), []byte{9, 0, 8, 1, 7, 2, 6, 3, 5, 4, 4, 0, 255, 255})
	dense := make([]byte, 4*400) // slices sharing segments, segments shared by slices
	for i := range dense {
		dense[i] = byte(i*37 + i/5)
	}
	f.Add(uint8(40), dense)
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb)*8 + 1
		var edges [][2]int32
		for i := 0; i+3 < len(data); i += 4 {
			u := (int(data[i])<<8 | int(data[i+1])) % n
			v := (int(data[i+2])<<8 | int(data[i+3])) % n
			edges = append(edges, [2]int32{int32(u), int32(v)})
		}
		g := FromEdges(n, edges)
		if got, want := BlockCount(g), ToSliceSet(g).BlockCount(); got != want {
			t.Fatalf("BlockCount = %d, ToSliceSet stores %d blocks (n %d, %d edges)", got, want, n, len(edges))
		}
	})
}

func TestUndirectedSymmetric(t *testing.T) {
	g := Undirected(3, [][2]int32{{0, 1}, {1, 2}})
	if g.Edges() != 4 {
		t.Fatalf("edges = %d, want 4", g.Edges())
	}
	has := func(v, u int32) bool {
		for _, w := range g.Adj(int(v)) {
			if w == u {
				return true
			}
		}
		return false
	}
	if !has(1, 0) || !has(2, 1) || !has(0, 1) || !has(1, 2) {
		t.Fatal("symmetrization incomplete")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	g.Neighbors[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("out-of-range neighbor not caught")
	}
	g = FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	g.Offsets[1] = 3
	if err := g.Validate(); err == nil {
		t.Error("non-monotone offsets not caught")
	}
}

func TestSliceSetRoundTrip(t *testing.T) {
	gen := lcg.New(3)
	var edges [][2]int32
	const n = 300
	for k := 0; k < 900; k++ {
		edges = append(edges, [2]int32{int32(gen.Intn(n)), int32(gen.Intn(n))})
	}
	g := FromEdges(n, edges)
	s := ToSliceSet(g)
	if s.RowSlices != (n+7)/8 {
		t.Fatalf("row slices = %d", s.RowSlices)
	}
	// Every edge must appear as a set bit, and every set bit as an edge.
	count := 0
	for si := 0; si < s.RowSlices; si++ {
		for p := s.SlicePtr[si]; p < s.SlicePtr[si+1]; p++ {
			bits := &s.Bits[p]
			for r := 0; r < 8; r++ {
				for b := 0; b < 128; b++ {
					if bits.Bit(r, b) {
						v := si*8 + r
						u := s.ColSegs[p]*128 + int32(b)
						count++
						found := false
						for _, w := range g.Adj(v) {
							if w == u {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("spurious bit (%d,%d)", v, u)
						}
					}
				}
			}
		}
	}
	if count != g.Edges() {
		t.Fatalf("slice set has %d bits, graph has %d edges", count, g.Edges())
	}
	if fr := s.FillRatio(g.Edges()); fr <= 0 || fr > 1 {
		t.Fatalf("fill ratio %v out of range", fr)
	}
}

func TestSliceSetBlocksSorted(t *testing.T) {
	g, err := Synthesize("kron_g500-logn21")
	if err != nil {
		t.Fatal(err)
	}
	s := ToSliceSet(g)
	for si := 0; si < s.RowSlices; si++ {
		for p := s.SlicePtr[si] + 1; p < s.SlicePtr[si+1]; p++ {
			if s.ColSegs[p] <= s.ColSegs[p-1] {
				t.Fatalf("slice %d blocks not sorted", si)
			}
		}
	}
}

func TestFrontierOps(t *testing.T) {
	f := NewFrontier(200)
	if !f.Empty() || f.Count() != 0 {
		t.Fatal("new frontier not empty")
	}
	f.Set(0)
	f.Set(63)
	f.Set(64)
	f.Set(199)
	if f.Count() != 4 || f.Empty() {
		t.Fatalf("count = %d, want 4", f.Count())
	}
	if !f.Has(63) || f.Has(62) {
		t.Fatal("Has wrong")
	}
	g := NewFrontier(200)
	g.Set(63)
	f.AndNot(g)
	if f.Has(63) || f.Count() != 3 {
		t.Fatal("AndNot wrong")
	}
	g.Or(f)
	if g.Count() != 4 {
		t.Fatal("Or wrong")
	}
}

func TestFrontierSegment(t *testing.T) {
	f := NewFrontier(300)
	f.Set(128) // first bit of segment 1
	f.Set(255) // last bit of segment 1
	seg := f.Segment(1)
	if seg[0] != 1 || seg[1] != 1<<63 {
		t.Fatalf("segment = %x,%x", seg[0], seg[1])
	}
	// Out-of-range segment is zero.
	if s := f.Segment(10); s[0] != 0 || s[1] != 0 {
		t.Fatal("out-of-range segment not zero")
	}
}

// TestToSliceSetSteadyStateAllocs pins the counted two-pass bitmap build
// allocation-free beyond its outputs: with the pooled stamp/slot/segment
// arenas warm, a build costs exactly the SliceSet struct, SlicePtr, and the
// two exact block arrays (ColSegs, Bits) plus the three pool-return headers.
// The map-of-heap-fragments builder this replaced allocated per slice.
func TestToSliceSetSteadyStateAllocs(t *testing.T) {
	g := Mycielskian(8)
	ToSliceSet(g) // warm the pooled arenas
	avg := testing.AllocsPerRun(100, func() { ToSliceSet(g) })
	if avg > 7 {
		t.Fatalf("ToSliceSet steady state allocates %.1f objects per build, want ≤ 7 (outputs only)", avg)
	}
}
