package graph

import (
	"math/bits"
	"slices"

	"repro/internal/mmu"
	"repro/internal/par"
)

// BerryBees represents graphs as 8×128 bitmap block slices: the adjacency
// matrix is cut into slices of 8 consecutive rows; within a slice, columns
// are grouped into 128-wide segments, and only nonempty 8×128 blocks are
// stored. Each block is directly usable as the A operand of the single-bit
// m8n8k128 MMA.

// SliceSet is the bitmap block slice-set encoding of a graph. Blocks are
// stored structure-of-arrays: block i is the pair (ColSegs[i], Bits[i]),
// with a slice's blocks occupying the contiguous index range
// [SlicePtr[si], SlicePtr[si+1]) sorted by column segment. The split layout
// keeps the bit payloads contiguous in memory, so a slice's whole block run
// feeds mmu.BMMAPanel as one packed sweep — the panel-engine equivalent of
// the BLIS operand packing the FP kernels use.
type SliceSet struct {
	N         int
	RowSlices int     // ceil(N/8)
	SlicePtr  []int   // length RowSlices+1, indexes ColSegs/Bits
	ColSegs   []int32 // column segment of block i: columns [128·seg, 128·(seg+1))
	Bits      []mmu.BitFragA
}

// Pooled arenas for the counted two-pass ToSliceSet: a column-segment stamp
// directory, the segment → output-slot map, and the per-slice distinct
// segment list.
var (
	sliceStampScratch = par.NewTypedScratch[int32]()
	sliceSlotScratch  = par.NewTypedScratch[int32]()
	sliceSegsScratch  = par.NewTypedScratch[int32]()
)

// ToSliceSet converts a CSR graph into the 8×128 bitmap slice-set format.
// The restructuring (and its padding) is the data-structure change that Key
// Observation 1 attributes to MMU adoption.
//
// The build is a counted two-pass mirroring sparse.ToMBSR: pass 1
// (blockCount, all of BlockCount) counts the distinct column segments of
// every slice against a pooled stamp directory (stamp si+1), sizing one
// exact allocation each for ColSegs and Bits; pass 2 re-discovers each
// slice's segments under the -(si+1) stamp, records the slice's extent in
// SlicePtr, sorts its segments, and ORs the adjacency bits straight into
// the assigned fragments. The map-of-heap-fragments version this replaced
// allocated a map, a 128-byte fragment, and repeated slice growth per
// slice.
func ToSliceSet(g *Graph) *SliceSet {
	rs := (g.N + 7) / 8
	segs := (g.N + 127) / 128
	stamp := sliceStampScratch.Get(segs)
	defer sliceStampScratch.Put(stamp)
	total := blockCount(g, stamp)
	// Fresh allocations, so the bit fragments start zeroed.
	s := &SliceSet{N: g.N, RowSlices: rs, SlicePtr: make([]int, rs+1),
		ColSegs: make([]int32, total), Bits: make([]mmu.BitFragA, total)}
	slot := sliceSlotScratch.Get(segs)
	defer sliceSlotScratch.Put(slot)
	list := sliceSegsScratch.Get(segs)
	defer sliceSegsScratch.Put(list)
	for si := 0; si < rs; si++ {
		gen := int32(-(si + 1))
		base := s.SlicePtr[si]
		n := 0
		for r := 0; r < 8; r++ {
			v := si*8 + r
			if v >= g.N {
				break
			}
			for _, u := range g.Adj(v) {
				seg := u / 128
				if stamp[seg] != gen {
					stamp[seg] = gen
					list[n] = seg
					n++
				}
			}
		}
		s.SlicePtr[si+1] = base + n
		run := list[:n]
		slices.Sort(run)
		for idx, seg := range run {
			s.ColSegs[base+idx] = seg
			slot[seg] = int32(idx)
		}
		for r := 0; r < 8; r++ {
			v := si*8 + r
			if v >= g.N {
				break
			}
			for _, u := range g.Adj(v) {
				seg := u / 128
				s.Bits[base+int(slot[seg])].SetBit(r, int(u%128))
			}
		}
	}
	return s
}

// BlockCount returns the number of 8×128 blocks ToSliceSet(g) stores —
// the distinct column segments of every 8-row slice — without building
// them: pass 1 of ToSliceSet.
func BlockCount(g *Graph) int {
	stamp := sliceStampScratch.Get((g.N + 127) / 128)
	defer sliceStampScratch.Put(stamp)
	return blockCount(g, stamp)
}

// blockCount is BlockCount against a caller's stamp directory of one entry
// per column segment, which it clears and leaves stamped si+1 wherever
// slice si last saw a segment.
func blockCount(g *Graph, stamp []int32) int {
	clear(stamp)
	total := 0
	for si := 0; si < (g.N+7)/8; si++ {
		gen := int32(si + 1)
		for v := si * 8; v < min(si*8+8, g.N); v++ {
			for _, u := range g.Adj(v) {
				if seg := u / 128; stamp[seg] != gen {
					stamp[seg] = gen
					total++
				}
			}
		}
	}
	return total
}

// BlockCount returns the number of stored 8×128 blocks.
func (s *SliceSet) BlockCount() int { return len(s.ColSegs) }

// FillRatio returns edges / (blocks · 8 · 128): the bitmap payload density,
// i.e. the MMU input utilization of the BFS workload.
func (s *SliceSet) FillRatio(edges int) float64 {
	if len(s.ColSegs) == 0 {
		return 0
	}
	return float64(edges) / float64(len(s.ColSegs)*8*128)
}

// Frontier is a vertex bitset used by the bitmap BFS.
type Frontier struct {
	N     int
	Words []uint64
}

// NewFrontier returns an empty frontier over n vertices.
func NewFrontier(n int) *Frontier {
	return &Frontier{N: n, Words: make([]uint64, (n+63)/64)}
}

// Set marks vertex v.
func (f *Frontier) Set(v int) { f.Words[v/64] |= 1 << (v % 64) }

// Has reports whether vertex v is marked.
func (f *Frontier) Has(v int) bool { return f.Words[v/64]>>(v%64)&1 == 1 }

// Count returns the number of marked vertices.
func (f *Frontier) Count() int {
	c := 0
	for _, w := range f.Words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no vertex is marked.
func (f *Frontier) Empty() bool {
	for _, w := range f.Words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Segment extracts the 128-bit column segment seg as the two words the
// B operand of the bit MMA consumes.
func (f *Frontier) Segment(seg int32) [2]uint64 {
	var out [2]uint64
	base := int(seg) * 2
	if base < len(f.Words) {
		out[0] = f.Words[base]
	}
	if base+1 < len(f.Words) {
		out[1] = f.Words[base+1]
	}
	return out
}

// AndNot removes all vertices in g from f in place.
func (f *Frontier) AndNot(g *Frontier) {
	for i := range f.Words {
		f.Words[i] &^= g.Words[i]
	}
}

// Or merges g into f in place.
func (f *Frontier) Or(g *Frontier) {
	for i := range f.Words {
		f.Words[i] |= g.Words[i]
	}
}
