package bfs

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestMetadata(t *testing.T) {
	w := New()
	if w.Name() != "BFS" || w.Quadrant() != 4 {
		t.Fatal("bad metadata")
	}
	if len(w.Cases()) != 5 || w.Repeats() != 2000 {
		t.Fatal("cases / repeats wrong")
	}
	if w.Dwarf() != "Graph traversal" {
		t.Fatal("dwarf wrong")
	}
}

func TestLevelsMatchSerialReference(t *testing.T) {
	w := New()
	for _, c := range w.Cases() {
		ref, err := w.Reference(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range w.Variants() {
			res, err := w.Run(c, v)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) != len(ref) {
				t.Fatalf("%s/%s: %d levels, want %d", c.Name, v, len(res.Output), len(ref))
			}
			for i := range ref {
				if res.Output[i] != ref[i] {
					t.Fatalf("%s/%s: level of %d = %v, want %v",
						c.Name, v, i, res.Output[i], ref[i])
				}
			}
		}
	}
}

func TestTraversalReachesMostVertices(t *testing.T) {
	w := New()
	for _, c := range w.Cases() {
		res, err := w.Run(c, workload.TC)
		if err != nil {
			t.Fatal(err)
		}
		reached := 0
		for _, l := range res.Output {
			if l >= 0 {
				reached++
			}
		}
		if reached < len(res.Output)/3 {
			t.Errorf("%s: traversal reached only %d/%d vertices",
				c.Name, reached, len(res.Output))
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	w := New()
	d, err := w.data(w.Representative())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.g.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.source != 0 {
		t.Errorf("relabeled source = %d, want 0", d.source)
	}
}

// relabelEdgeList is the Relabel the direct permuted build replaced, kept
// as its oracle: number the vertices in BFS order from src, then rebuild
// the graph from the renumbered edge list through graph.FromEdges.
func relabelEdgeList(g *graph.Graph, src int) *graph.Graph {
	order := make([]int32, 0, g.N)
	newID := make([]int32, g.N)
	for i := range newID {
		newID[i] = -1
	}
	queue := []int32{int32(src)}
	newID[src] = 0
	order = append(order, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Adj(int(v)) {
			if newID[u] < 0 {
				newID[u] = int32(len(order))
				order = append(order, u)
				queue = append(queue, u)
			}
		}
	}
	for v := 0; v < g.N; v++ {
		if newID[v] < 0 {
			newID[v] = int32(len(order))
			order = append(order, int32(v))
		}
	}
	edges := make([][2]int32, 0, g.Edges())
	for v := 0; v < g.N; v++ {
		for _, u := range g.Adj(v) {
			edges = append(edges, [2]int32{newID[v], newID[u]})
		}
	}
	return graph.FromEdges(g.N, edges)
}

// relabelInputs are the graphs Relabel is pinned on: the five Table 3
// graphs and the Figure 10a corpus of `cubie all`.
func relabelInputs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	in := map[string]*graph.Graph{}
	for _, d := range graph.Table3() {
		g, err := graph.Synthesize(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		in[d.Name] = g
	}
	for i, g := range graph.Corpus(199, 1) {
		in[fmt.Sprintf("corpus %d", i)] = g
	}
	return in
}

// TestRelabelMatchesEdgeListOracle pins the direct permuted build to the
// edge-list rebuild it replaced, from the hub and from the last vertex.
func TestRelabelMatchesEdgeListOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 3 and corpus synthesis in -short mode")
	}
	for name, g := range relabelInputs(t) {
		for _, src := range []int{Hub(g), g.N - 1} {
			got, s := Relabel(g, src)
			want := relabelEdgeList(g, src)
			if s != 0 || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Neighbors, want.Neighbors) {
				t.Fatalf("%s from %d: Relabel differs from the edge-list oracle", name, src)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s from %d: %v", name, src, err)
			}
		}
	}
}

// TestRelabelInputsSymmetric checks Relabel's precondition on every graph
// it is given: u lists v whenever v lists u.
func TestRelabelInputsSymmetric(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 3 and corpus synthesis in -short mode")
	}
	for name, g := range relabelInputs(t) {
		for v := 0; v < g.N; v++ {
			for _, u := range g.Adj(v) {
				if _, ok := slices.BinarySearch(g.Adj(int(u)), int32(v)); !ok {
					t.Fatalf("%s: %d lists %d, but %d does not list %d", name, v, u, u, v)
				}
			}
		}
	}
}

// TestRelabelRejectsAsymmetric: a directed graph breaks the row counts
// the build relies on, and Relabel says so instead of returning a wrong
// graph.
func TestRelabelRejectsAsymmetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Relabel accepted a directed graph")
		}
	}()
	Relabel(graph.FromEdges(3, [][2]int32{{0, 1}, {0, 2}}), 0)
}

func TestBitMMAOnlyOnTC(t *testing.T) {
	w := New()
	c := w.Representative()
	tc, _ := w.Run(c, workload.TC)
	cc, _ := w.Run(c, workload.CC)
	bl, _ := w.Run(c, workload.Baseline)
	if tc.Profile.BitOps <= 0 {
		t.Error("TC must issue bit MMAs")
	}
	if cc.Profile.BitOps != 0 || bl.Profile.BitOps != 0 {
		t.Error("CC/baseline must not issue bit MMAs")
	}
	if tc.OutputUtil != 0.125 {
		t.Errorf("output utilization %v, want 1/8", tc.OutputUtil)
	}
	if tc.InputUtil <= 0 || tc.InputUtil > 1 {
		t.Errorf("input utilization %v invalid", tc.InputUtil)
	}
}

func TestPerformanceShape(t *testing.T) {
	// Paper: 2.6×, 3.0×, 2.7× over Gunrock on A100/H200/B200 (averaged);
	// CC and CC-E stay close to TC (Quadrant IV, Sections 6.2–6.3).
	w := New()
	speedups := map[string][]float64{}
	for _, c := range w.Cases() {
		tc, _ := w.Run(c, workload.TC)
		cc, _ := w.Run(c, workload.CC)
		cce, _ := w.Run(c, workload.CCE)
		bl, _ := w.Run(c, workload.Baseline)
		for _, spec := range device.All() {
			tTC := sim.Run(spec, tc.Profile).Time
			tCC := sim.Run(spec, cc.Profile).Time
			tCCE := sim.Run(spec, cce.Profile).Time
			tBL := sim.Run(spec, bl.Profile).Time
			speedups[spec.Name] = append(speedups[spec.Name], tBL/tTC)
			if tBL <= tTC {
				t.Errorf("%s/%s: TC not faster than Gunrock-class baseline",
					c.Name, spec.Name)
			}
			if r := tTC / tCC; r < 0.8 || r > 1.0 {
				t.Errorf("%s/%s: CC/TC %v outside [0.8, 1.0]", c.Name, spec.Name, r)
			}
			if r := tTC / tCCE; r < 0.8 || r > 1.05 {
				t.Errorf("%s/%s: CC-E/TC %v outside [0.8, 1.05]", c.Name, spec.Name, r)
			}
		}
	}
	for dev, sps := range speedups {
		var sum float64
		for _, s := range sps {
			sum += s
		}
		avg := sum / float64(len(sps))
		if avg < 1.8 || avg > 4.5 {
			t.Errorf("%s: average TC speedup %v outside [1.8, 4.5]", dev, avg)
		}
	}
}

func TestUnknownVariantAndCase(t *testing.T) {
	w := New()
	if _, err := w.Run(w.Representative(), "nope"); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := w.Run(workload.Case{Dataset: "zzz"}, workload.TC); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestCaseBuildOneInputSpan: concurrent first runs of a case build its
// traversal input once, in one host span of category "input" of its own,
// beside at most one for the Table 3 graph it is built from (none when
// another test left the graph cached).
func TestCaseBuildOneInputSpan(t *testing.T) {
	w := New()
	c := w.Cases()[0]
	trace.StartHost()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Profile(c, workload.TC); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	rec := trace.StopHost()
	spans := map[string]int{}
	for _, e := range rec.Events() {
		if e.Category == "input" {
			spans[e.Name]++
		}
	}
	layout, graph := "layout BFS|"+c.Name, "synthesize graph|"+c.Dataset
	if spans[graph] > 1 {
		t.Fatalf("%d %q spans, want at most one", spans[graph], graph)
	}
	delete(spans, graph)
	if len(spans) != 1 || spans[layout] != 1 {
		t.Fatalf("input spans %v, want one %q", spans, layout)
	}
}
