// Package graph provides the graph structures used by the BFS workload: a
// CSR adjacency representation, the 8×128 bitmap block slice-set format of
// BerryBees (the paper's TC BFS), and synthetic generators reproducing the
// structural classes of the SuiteSparse graphs in Table 3.
package graph

import "fmt"

// Graph is a directed graph in CSR adjacency form. For the (symmetric)
// Table 3 graphs every edge is stored in both directions, matching how
// SuiteSparse counts nonzeros.
type Graph struct {
	N         int
	Offsets   []int   // length N+1
	Neighbors []int32 // sorted within each vertex
}

// Edges returns the number of stored directed edges.
func (g *Graph) Edges() int { return len(g.Neighbors) }

// Degree returns the out-degree of vertex v.
func (g *Graph) Degree(v int) int { return g.Offsets[v+1] - g.Offsets[v] }

// Adj returns the neighbor list of v (shared storage).
func (g *Graph) Adj(v int) []int32 { return g.Neighbors[g.Offsets[v]:g.Offsets[v+1]] }

// Validate checks the CSR invariants.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.N+1)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != len(g.Neighbors) {
		return fmt.Errorf("graph: offset endpoints wrong")
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		if g.Offsets[v] < 0 || g.Offsets[v+1] > len(g.Neighbors) {
			return fmt.Errorf("graph: offsets of %d outside neighbor storage", v)
		}
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			u := int(g.Neighbors[k])
			if u < 0 || u >= g.N {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			if k > g.Offsets[v] && g.Neighbors[k] <= g.Neighbors[k-1] {
				return fmt.Errorf("graph: neighbors of %d not strictly ascending", v)
			}
		}
	}
	return nil
}

// FromEdges builds a graph from a directed edge list, dropping duplicates
// and self-loops.
func FromEdges(n int, edges [][2]int32) *Graph { return build(n, edges, false) }

// Undirected builds the graph of an edge list taken in both directions.
func Undirected(n int, edges [][2]int32) *Graph { return build(n, edges, true) }

// build is the counted CSR build FromEdges and Undirected share, with no
// comparison sort. It counts the out-degrees, buckets every edge's source
// by its destination, then walks the destinations in ascending order and
// appends each to its sources' rows, so every row comes out sorted and its
// duplicates adjacent; a last pass compacts them away. Self-loops are never
// stored. With both set, every edge also counts reversed. Neighbors stays
// nil when no edge survives.
func build(n int, edges [][2]int32, both bool) *Graph {
	g := &Graph{N: n, Offsets: make([]int, n+1)}
	in := make([]int, n+1) // bucket bounds by destination
	for _, e := range edges {
		if e[0] != e[1] {
			g.Offsets[e[0]+1]++
			in[e[1]+1]++
			if both {
				g.Offsets[e[1]+1]++
				in[e[0]+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		g.Offsets[v+1] += g.Offsets[v]
		in[v+1] += in[v]
	}
	if g.Offsets[n] == 0 {
		return g
	}
	srcs := make([]int32, in[n])
	next := make([]int, n)
	copy(next, in[:n])
	for _, e := range edges {
		if e[0] != e[1] {
			srcs[next[e[1]]] = e[0]
			next[e[1]]++
			if both {
				srcs[next[e[0]]] = e[1]
				next[e[0]]++
			}
		}
	}
	nb := make([]int32, g.Offsets[n])
	copy(next, g.Offsets[:n])
	for d := 0; d < n; d++ {
		for _, s := range srcs[in[d]:in[d+1]] {
			nb[next[s]] = int32(d)
			next[s]++
		}
	}
	// Compact toward the front: row v's unique neighbors land at w, which
	// never passes the row's unread entries.
	w, lo := 0, 0
	for v := 0; v < n; v++ {
		hi := g.Offsets[v+1]
		start := w
		for _, u := range nb[lo:hi] {
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
