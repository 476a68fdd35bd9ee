package graph

import (
	"reflect"
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

// FuzzFromEdges checks the counted CSR build against a map-based
// reference: per vertex, the set of distinct non-self targets, ascending.
// The fuzzer picks the vertex count (1..64) and the edge list, two bytes
// per edge taken modulo the vertex count.
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0})                      // n == 1, self-loops only
	f.Add(uint8(3), []byte{0, 1, 0, 2, 1, 3, 0, 1, 2, 2})    // TestFromEdges' shape
	f.Add(uint8(7), []byte{5, 1, 5, 1, 5, 1, 0, 7, 7, 0})    // duplicates, empty rows
	f.Add(uint8(63), []byte{})                               // no edges
	f.Add(uint8(9), []byte{9, 0, 8, 1, 7, 2, 6, 3, 5, 4, 4}) // odd byte dropped
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb)%64 + 1
		var edges [][2]int32
		for i := 0; i+1 < len(data); i += 2 {
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

		g := FromEdges(n, edges)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Offsets, want.Offsets) || !slices.Equal(g.Neighbors, want.Neighbors) {
			t.Fatalf("FromEdges(%d, %v) = %v %v, want %v %v", n, edges, g.Offsets, g.Neighbors, want.Offsets, want.Neighbors)
		}
		if (g.Neighbors == nil) != (want.Neighbors == nil) {
			t.Fatalf("Neighbors nil = %v, want %v", g.Neighbors == nil, want.Neighbors == nil)
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
