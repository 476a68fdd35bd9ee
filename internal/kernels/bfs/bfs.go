// Package bfs implements the BFS workload following BerryBees (Niu &
// Casas, PPoPP '25): the graph is stored as 8×128 bitmap block slices and
// each level intersects adjacency blocks with the frontier bitmap using the
// single-bit m8n8k128 MMA (AND+POPC) — Quadrant IV: full input operands,
// with only one column of each output tile consumed. BFS performs no
// floating-point work and is excluded from the Table 6 accuracy study.
//
// Unlike the FP kernels, the BFS profiles are measured, not closed-form:
// the traversal counts every bit-MMA, block load, and frontier word it
// actually touches on the synthesized Table 3 graphs.
package bfs

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload is the BFS kernel. It builds each case's traversal input once,
// in a flight of its own, so distinct cases build concurrently.
type Workload struct {
	cases par.Flights[string, *caseData]
}

// caseData is one case's traversal input: the graph as synthesized, its
// BFS-order relabeling from the hub, and the relabeled graph's slice set.
type caseData struct {
	orig   *graph.Graph
	g      *graph.Graph
	slices *graph.SliceSet
	source int
}

// New returns the BFS workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "BFS" }

// Quadrant implements workload.Workload (Figure 2, Quadrant IV).
func (*Workload) Quadrant() int { return 4 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "Graph traversal" }

// Cases returns the five Table 3 graphs.
func (*Workload) Cases() []workload.Case {
	var cs []workload.Case
	for _, d := range graph.Table3() {
		cs = append(cs, workload.Case{Name: d.Name, Dataset: d.Name})
	}
	return cs
}

// Variants implements workload.Workload.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC, workload.CCE}
}

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[3] } // kron

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 2000 }

// data returns case c's traversal input, built by the first caller in an
// input span under pprof labels {workload: "BFS", variant: c.Name, phase:
// "layout"} (trace.BuildInput).
func (w *Workload) data(c workload.Case) (*caseData, error) {
	d, err, _ := w.cases.Do(c.Dataset, func() (*caseData, error) {
		g0, err := graph.SynthesizeShared(c.Dataset)
		if err != nil {
			return nil, err
		}
		// BerryBees-style preprocessing: relabel vertices in BFS order from
		// the hub so neighborhoods pack into nearby bitmap columns, raising
		// the 8×128 block fill (part of the format construction, done once).
		d := &caseData{orig: g0}
		trace.BuildInput("BFS", c.Name, "layout", func() {
			d.g, d.source = Relabel(g0, Hub(g0))
			d.slices = graph.ToSliceSet(d.g)
		})
		return d, nil
	})
	return d, err
}

// Inputs implements workload.InputReader: every computation of case c
// reads its traversal input and the Table 3 graph it is built from.
func (w *Workload) Inputs(c workload.Case, _ workload.Variant, _ workload.Op) []par.Input {
	return []par.Input{w.cases.Input(c.Dataset), graph.SharedInput(c.Dataset)}
}

// BlockCounts returns the number of 8×128 bitmap blocks case c's
// traversal stores, and the number its graph would need without the BFS
// relabeling: the two arms of the BerryBees preprocessing ablation. The
// first reads the case's slice set; the second counts the synthesized
// graph's blocks without packing them.
func (w *Workload) BlockCounts(c workload.Case) (relabeled, original int, err error) {
	d, err := w.data(c)
	if err != nil {
		return 0, 0, err
	}
	return d.slices.BlockCount(), graph.BlockCount(d.orig), nil
}

// counters accumulates the measured work of one traversal.
type counters struct {
	bmma       float64 // bit MMAs (or their scalar replacements)
	blockLoads float64 // 8×128 bitmap blocks fetched
	segChecks  float64 // frontier-segment emptiness tests
	frontierW  float64 // frontier words read + written
	edges      float64 // baseline: edges relaxed
	statusOps  float64 // baseline: status-array accesses
	levels     float64
}

// Profile implements workload.Workload. A BFS profile is made of the
// traversal's counters, so it traverses; it drops the level array.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, _, err := w.traverse(c, v)
	return res, err
}

// Run implements workload.Workload: the traversal's profile, plus every
// vertex's BFS level as the output.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, levels, err := w.traverse(c, v)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(levels))
	for i, l := range levels {
		out[i] = float64(l)
	}
	res.Output = out
	return res, nil
}

// traverse runs the variant's traversal of the case's graph and returns
// the result without an output, plus the level of every vertex.
func (w *Workload) traverse(c workload.Case, v workload.Variant) (*workload.Result, []int32, error) {
	d, err := w.data(c)
	if err != nil {
		return nil, nil, err
	}
	res := &workload.Result{
		Work:       float64(d.g.Edges()),
		MetricName: "GTEPS",
	}
	var levels []int32
	var ct counters
	switch v {
	case workload.TC, workload.CC:
		levels, ct = bitmapBFS(d)
		res.InputUtil = d.slices.FillRatio(d.g.Edges())
		res.OutputUtil = 1.0 / mmu.BitN // one output column consumed
	case workload.CCE:
		// The traversal (including settled-slice skipping) is identical;
		// CC-E only replaces the bit MMA with essential scalar word ops,
		// which is why it performs like TC for BFS (Section 6.3).
		levels, ct = bitmapBFS(d)
	case workload.Baseline:
		levels, ct = topDownBFS(d)
	default:
		return nil, nil, fmt.Errorf("bfs: unknown variant %q", v)
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(ct)
	case workload.CC:
		res.Profile = ccProfile(ct)
	case workload.CCE:
		res.Profile = cceProfile(ct)
	case workload.Baseline:
		res.Profile = baselineProfile(ct, d)
	}
	return res, levels, nil
}

// Reference implements workload.Workload: a serial queue-based BFS.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	d, err := w.data(c)
	if err != nil {
		return nil, err
	}
	levels := make([]float64, d.g.N)
	for i := range levels {
		levels[i] = -1
	}
	queue := []int32{int32(d.source)}
	levels[d.source] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range d.g.Adj(int(v)) {
			if levels[u] < 0 {
				levels[u] = levels[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return levels, nil
}

// Hub returns the traversal source: the first vertex of highest degree,
// so the traversal is substantial.
func Hub(g *graph.Graph) int {
	src, best := 0, -1
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > best {
			src, best = v, d
		}
	}
	return src
}

// Relabel renumbers vertices by BFS visit order from src (unreached
// vertices keep their relative order at the end) and returns the relabeled
// graph plus the new source id (always 0). Exported so the relabeled
// Table 3 graphs' digests can be pinned (internal/graph's digest test).
//
// g must be symmetric, as every Table 3 graph is (graph.Undirected builds
// them): new row r then holds exactly the new ids u whose old vertex lists
// order[r] as a neighbor. So the build counts row r's length as
// order[r]'s degree, walks the new ids u in ascending order and appends u
// to the row of each neighbor of order[u]: every row comes out sorted,
// with no edge list and no sort.
func Relabel(g *graph.Graph, src int) (*graph.Graph, int) {
	// order doubles as the BFS queue: a vertex is queued exactly when it
	// is numbered.
	order := make([]int32, 0, g.N)
	newID := make([]int32, g.N)
	for i := range newID {
		newID[i] = -1
	}
	newID[src] = 0
	order = append(order, int32(src))
	for head := 0; head < len(order); head++ {
		for _, u := range g.Adj(int(order[head])) {
			if newID[u] < 0 {
				newID[u] = int32(len(order))
				order = append(order, u)
			}
		}
	}
	for v := 0; v < g.N; v++ {
		if newID[v] < 0 {
			newID[v] = int32(len(order))
			order = append(order, int32(v))
		}
	}
	out := &graph.Graph{N: g.N, Offsets: make([]int, g.N+1)}
	for r, v := range order {
		out.Offsets[r+1] = out.Offsets[r] + g.Degree(int(v))
	}
	out.Neighbors = make([]int32, out.Offsets[g.N])
	next := make([]int, g.N)
	copy(next, out.Offsets[:g.N])
	for u, v := range order {
		for _, x := range g.Adj(int(v)) {
			r := newID[x]
			out.Neighbors[next[r]] = int32(u)
			next[r]++
		}
	}
	for r := range next {
		if next[r] != out.Offsets[r+1] {
			panic("bfs: Relabel needs a symmetric graph")
		}
	}
	return out, 0
}

// bitmapBFS is the BerryBees pull traversal: each level, every slice with
// unvisited rows intersects its adjacency blocks with the frontier bitmap
// via the bit MMA; rows with a nonzero popcount join the next frontier.
// Settled slices are skipped (part of the BerryBees algorithm).
func bitmapBFS(d *caseData) ([]int32, counters) {
	g, s := d.g, d.slices
	var ct counters
	levels := make([]int32, g.N)
	for i := range levels {
		levels[i] = -1
	}
	levels[d.source] = 0
	frontier := graph.NewFrontier(g.N)
	frontier.Set(d.source)
	visited := graph.NewFrontier(g.N)
	visited.Set(d.source)

	for level := int32(1); !frontier.Empty(); level++ {
		ct.levels++
		ct.frontierW += float64(len(frontier.Words)) * 2
		next := graph.NewFrontier(g.N)
		for si := 0; si < s.RowSlices; si++ {
			// Skip slices whose eight vertices are all settled.
			allVisited := true
			for r := 0; r < 8; r++ {
				v := si*8 + r
				if v < g.N && levels[v] < 0 {
					allVisited = false
					break
				}
			}
			if allVisited {
				continue
			}
			// The slice's whole block run executes as one BMMAPanel sweep:
			// the SoA layout hands the packed bit payloads and column
			// segments over directly, blocks whose frontier segment is empty
			// are skipped inside the sweep, and the executed count comes
			// back for the measured-work profiles.
			p0, p1 := s.SlicePtr[si], s.SlicePtr[si+1]
			var rowHits [8]int32
			n := mmu.BMMAPanel(&rowHits, s.Bits[p0:p1], s.ColSegs[p0:p1], frontier.Words)
			ct.segChecks += float64(p1 - p0)
			ct.blockLoads += float64(n)
			ct.bmma += float64(n)
			for r := 0; r < 8; r++ {
				v := si*8 + r
				if v < g.N && rowHits[r] > 0 && levels[v] < 0 {
					levels[v] = level
					next.Set(v)
				}
			}
		}
		visited.Or(next)
		frontier = next
	}
	return levels, ct
}

// topDownBFS is the Gunrock-class baseline: frontier expansion over CSR
// neighbor lists with a status array.
func topDownBFS(d *caseData) ([]int32, counters) {
	g := d.g
	var ct counters
	levels := make([]int32, g.N)
	for i := range levels {
		levels[i] = -1
	}
	levels[d.source] = 0
	frontier := []int32{int32(d.source)}
	for level := int32(1); len(frontier) > 0; level++ {
		ct.levels++
		var next []int32
		for _, v := range frontier {
			adj := g.Adj(int(v))
			ct.edges += float64(len(adj))
			for _, u := range adj {
				ct.statusOps++
				if levels[u] < 0 {
					levels[u] = level
					next = append(next, u)
				}
			}
		}
		ct.frontierW += float64(len(next))
		frontier = next
	}
	return levels, ct
}

// Profiles, built from the measured traversal counters.

const blockBytes = 8*2*sim.BytesWord + sim.BytesIdx // 8 rows × 2 words + seg id

func tcProfile(ct counters) sim.Profile {
	return sim.Profile{
		BitOps: ct.bmma * mmu.OpsPerBMMA,
		IntOps: ct.segChecks*2 + ct.bmma*16, // segment tests + hit extraction
		// Bitmap blocks are re-read across levels; L2 holds the hot set.
		DRAMBytes: ct.blockLoads*blockBytes*0.6 + ct.frontierW*sim.BytesWord,
		L2Bytes:   ct.blockLoads * blockBytes * 0.4,
		L1Bytes:   ct.bmma * 160, // A block + broadcast B staging
		Launches:  int(ct.levels),
		SyncSteps: ct.levels,
		Overlap:   0.85,
		Eff: sim.Efficiency{
			Bit:  sim.EffModerate,
			DRAM: 0.85, // regularized block-slice streaming
			L2:   0.7,
			L1:   0.9,
		},
	}
}

func ccProfile(ct counters) sim.Profile {
	p := tcProfile(ct)
	// Each 8×128 AND+POPC becomes 16 scalar word ops per row set.
	p.IntOps += ct.bmma * 128
	p.BitOps = 0
	p.Overlap = 0.45
	p.Eff = sim.Efficiency{Vector: 0.4, DRAM: 0.85, L2: 0.7, L1: 0.9}
	return p
}

func cceProfile(ct counters) sim.Profile {
	p := tcProfile(ct)
	// Same traversal with the skipped all-visited slices already reflected
	// in the measured counters; scalar ops replace the bit MMA.
	p.IntOps += ct.bmma * 128
	p.BitOps = 0
	p.Overlap = 0.50
	p.Eff = sim.Efficiency{Vector: 0.4, DRAM: 0.85, L2: 0.7, L1: 0.9}
	return p
}

func baselineProfile(ct counters, d *caseData) sim.Profile {
	return sim.Profile{
		IntOps: ct.edges*4 + ct.statusOps*2,
		// Neighbor lists stream, but the status array is hit at random:
		// one 32-byte transaction class per miss.
		DRAMBytes: ct.edges*sim.BytesIdx + ct.statusOps*sim.BytesIdx*2 +
			ct.frontierW*sim.BytesIdx*2,
		L2Bytes:   ct.statusOps * sim.BytesIdx * 2,
		L1Bytes:   ct.edges * 8,
		Launches:  int(ct.levels) * 2, // expand + contract per level
		SyncSteps: ct.levels,
		Overlap:   0.55,
		Eff: sim.Efficiency{
			Vector: 0.4,
			DRAM:   0.35, // scattered status-array traffic
			L2:     0.5,
			L1:     0.7,
		},
	}
}
