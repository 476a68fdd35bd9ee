package harness

// The figure catalog: every renderable figure/table of the reproduction,
// addressable by a stable name. The catalog is the single source of truth
// for what a "figure" is — `cubie all` renders the InAll entries in paper
// order, `cubie <figure>` commands render single entries, and the
// `cubie serve` HTTP API (internal/server) serves them at
// /api/v1/figures/{name}. Because the CLI and the server run the exact
// same Render function, a daemon's figure bytes are identical to the CLI's
// stdout for that figure by construction (internal/server tests pin this).
//
// Render functions write the complete text artifact, with no leading or
// trailing blank line; RenderAll joins the InAll entries with one blank
// line, reproducing the historical `cubie all` output byte for byte.

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Figure is one catalog entry: a named, parameter-free text artifact.
// Entries that take CLI parameters (a device, a corpus size, a speedup
// pair) are frozen at the values `cubie all` uses; the parameterized
// forms remain available as harness methods for the CLI flags.
type Figure struct {
	Name   string // stable endpoint / CLI name
	Title  string // one-line human description
	InAll  bool   // rendered by RenderAll (`cubie all`), in catalog order
	Render func(h *Harness, w io.Writer) error
}

// catalog lists every figure in `cubie all` paper order, followed by the
// entries `cubie all` does not print (datasets, sweep). The order and the
// InAll flags are load-bearing: RenderAll replays them verbatim.
var catalog = []Figure{
	{"suite", "Table 2 — the ten workloads, cases, and variants", true, renderSuite},
	{"specs", "Table 5 — simulated GPU specifications", true, renderSpecs},
	{"quadrants", "Figure 2 — four-quadrant MMU utilization categorization", true, renderQuadrants},
	{"figure3", "Figure 3 — absolute performance grid (all devices)", true, renderFigure3},
	{"figure4", "Figure 4 — TC-over-baseline speedups", true,
		func(h *Harness, w io.Writer) error { return h.RenderSpeedupPair(w, "tc-vs-baseline") }},
	{"figure5", "Figure 5 — CC-over-TC speedups", true,
		func(h *Harness, w io.Writer) error { return h.RenderSpeedupPair(w, "cc-vs-tc") }},
	{"figure6", "Figure 6 — CC-E-over-TC speedups (Quadrants II–IV)", true,
		func(h *Harness, w io.Writer) error { return h.RenderSpeedupPair(w, "cce-vs-tc") }},
	{"figure7", "Figure 7 — energy-delay products on H200", true, renderFigure7},
	{"figure8", "Figure 8 — power-trace summaries on H200", true, renderFigure8},
	{"table6", "Table 6 — FP64 numerical errors vs CPU serial reference", true, renderTable6},
	{"figure9", "Figure 9 — cache-aware roofline on H200", true, renderFigure9},
	{"coverage", "Figures 10–11 — PCA coverage analyses", true,
		func(h *Harness, w io.Writer) error { return h.RenderCoverageSection(w, campaignCorpus, device.H200()) }},
	{"whatif", "Section 11 counterfactual — Blackwell with FP64 scaling preserved", true, renderWhatif},
	{"ablate", "Ablation studies of the model's design choices", true,
		func(h *Harness, w io.Writer) error { return h.RenderAblationSection(w, device.H200()) }},
	{"dwarfs", "Table 7 — Berkeley-dwarf coverage comparison", true, renderDwarfs},
	{"figure12", "Figure 12 — peak-throughput evolution across generations", true,
		func(h *Harness, w io.Writer) error { RenderFigure12(w); return nil }},
	{"observe", "The nine key observations with Table 1's mapping", true, renderObserve},
	{"datasets", "Tables 3–4 — the synthesized graphs and matrices", false, renderDatasets},
	{"sweep", "Bandwidth / tensor-peak provisioning sweeps on H200", false,
		func(h *Harness, w io.Writer) error { return h.RenderSweepSection(w, device.H200()) }},
}

// Catalog returns the figure catalog in render order. The returned slice
// is shared and read-only by contract.
func Catalog() []Figure { return catalog }

// FigureByName resolves one catalog entry.
func FigureByName(name string) (Figure, bool) {
	for _, f := range catalog {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// RenderAll renders the whole campaign in paper order — the body of
// `cubie all`. It prefetches the whole-campaign plan first, so the runs
// and memos a later figure needs execute while an earlier figure renders.
func (h *Harness) RenderAll(w io.Writer) error {
	h.Prefetch(h.PlanCampaign())
	first := true
	for _, f := range catalog {
		if !f.InAll {
			continue
		}
		if !first {
			fmt.Fprintln(w)
		}
		first = false
		if err := f.render(h, w); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	return nil
}

// RenderFigure renders one catalog entry by name.
func (h *Harness) RenderFigure(w io.Writer, name string) error {
	f, ok := FigureByName(name)
	if !ok {
		return fmt.Errorf("unknown figure %q", name)
	}
	return f.render(h, w)
}

// render runs the entry's Render inside a host span of category render
// named by the figure.
func (f Figure) render(h *Harness, w io.Writer) error {
	defer trace.HostSpan("render", f.Name)()
	return f.Render(h, w)
}

func renderSuite(h *Harness, w io.Writer) error {
	fmt.Fprintln(w, "The Cubie benchmark suite (Table 2)")
	for _, wl := range h.Suite.Workloads() {
		fmt.Fprintf(w, "\n%-10s quadrant %d, dwarf: %s\n", wl.Name(), wl.Quadrant(), wl.Dwarf())
		fmt.Fprint(w, "  cases:   ")
		for i, c := range wl.Cases() {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprint(w, c.Name)
		}
		fmt.Fprint(w, "\n  variants:")
		for _, v := range wl.Variants() {
			fmt.Fprintf(w, " %s", v)
		}
		fmt.Fprintf(w, "\n  figure-7 repeats: %d\n", wl.Repeats())
	}
	return nil
}

func renderSpecs(h *Harness, w io.Writer) error {
	fmt.Fprintln(w, "Simulated GPUs (Table 5)")
	fmt.Fprintf(w, "%-6s %-10s %12s %12s %10s %8s %8s\n",
		"GPU", "arch", "TC FP64(TF)", "CC FP64(TF)", "BW(TB/s)", "mem(GB)", "TDP(W)")
	for _, d := range device.All() {
		fmt.Fprintf(w, "%-6s %-10s %12.1f %12.1f %10.2f %8.0f %8.0f\n",
			d.Name, d.Arch, d.TensorFP64, d.CUDAFP64, d.DRAMBWTBs, d.MemoryGB, d.TDPWatts)
	}
	return nil
}

func renderQuadrants(h *Harness, w io.Writer) error {
	fmt.Fprintln(w, "MMU utilization quadrants (Section 4, Figure 2)")
	mark := func(full bool) string {
		if full {
			return "full"
		}
		return "partial"
	}
	for _, q := range h.Suite.Quadrants() {
		fmt.Fprintf(w, "\nQuadrant %d — input %s, output %s\n",
			q.Quadrant, mark(q.InputFull), mark(q.OutputFull))
		fmt.Fprintf(w, "  %s\n  workloads: %v\n", q.Description, q.Workloads)
	}
	return nil
}

func renderDwarfs(h *Harness, w io.Writer) error {
	fmt.Fprintln(w, "Berkeley-dwarf coverage (Table 7)")
	fmt.Fprintf(w, "%-24s %8s %6s %6s\n", "dwarf", "Rodinia", "SHOC", "Cubie")
	for _, r := range h.Suite.DwarfCoverage() {
		fmt.Fprintf(w, "%-24s %8d %6d %6d\n", r.Dwarf, r.Rodinia, r.SHOC, r.Cubie)
	}
	fmt.Fprintf(w, "\nCubie covers %d dwarfs (Rodinia and SHOC cover 5 each).\n",
		h.Suite.DwarfsCovered())
	return nil
}

func renderObserve(h *Harness, w io.Writer) error {
	fmt.Fprintln(w, "The nine key observations")
	for _, o := range core.Observations() {
		fmt.Fprintf(w, "\nO%d (%s): %s\n", o.ID, o.Sections, o.Statement)
	}
	fmt.Fprintln(w, "\nConcern-to-observation mapping (Table 1):")
	for _, r := range core.Table1() {
		aud := ""
		if r.Architecture {
			aud += " Arch"
		}
		if r.Algorithm {
			aud += " Alg"
		}
		if r.Application {
			aud += " App"
		}
		fmt.Fprintf(w, "  %-26s%-14s O%v\n", r.Concern, aud, r.Observations)
	}
	return nil
}

func renderDatasets(h *Harness, w io.Writer) error {
	fmt.Fprintln(w, "BFS graphs (Table 3; synthesized at reduced scale, see DESIGN.md)")
	fmt.Fprintf(w, "%-20s %10s %12s %-10s %s\n", "graph", "#vertices", "#edges", "group", "synthesis")
	for _, d := range graph.Table3() {
		fmt.Fprintf(w, "%-20s %10d %12d %-10s %s\n", d.Name, d.Vertices, d.Edges, d.Group, d.ScaleNote)
	}
	fmt.Fprintln(w, "\nSpMV/SpGEMM matrices (Table 4; synthesized to structural class)")
	fmt.Fprintf(w, "%-16s %8s %10s %-10s %s\n", "matrix", "#rows", "#nonzeros", "group", "class")
	for _, d := range sparse.Table4() {
		fmt.Fprintf(w, "%-16s %8d %10d %-10s %s\n", d.Name, d.Rows, d.Nonzeros, d.Group, d.Class)
	}
	return nil
}

func renderFigure3(h *Harness, w io.Writer) error {
	cells, err := h.Figure3(device.All())
	if err != nil {
		return err
	}
	RenderFigure3(w, cells)
	return nil
}

// RenderSpeedupPair renders one Figure 4/5/6 speedup comparison, selected
// by the CLI's --of vocabulary.
func (h *Harness) RenderSpeedupPair(w io.Writer, pair string) error {
	var rows []SpeedupRow
	var err error
	var title string
	switch pair {
	case "tc-vs-baseline":
		title = "Figure 4 — speedups of TC over baselines (avg of five cases)"
		rows, err = h.Figure4(device.All())
	case "cc-vs-tc":
		title = "Figure 5 — speedups of CC over TC"
		rows, err = h.Figure5(device.All())
	case "cce-vs-tc":
		title = "Figure 6 — speedups of CC-E over TC (Quadrants II–IV)"
		rows, err = h.Figure6(device.All())
	default:
		return fmt.Errorf("unknown speedup pair %q", pair)
	}
	if err != nil {
		return err
	}
	RenderSpeedups(w, title, rows)
	return nil
}

func renderFigure7(h *Harness, w io.Writer) error {
	rows, geo, err := h.Figure7(device.H200())
	if err != nil {
		return err
	}
	RenderFigure7(w, rows, geo)
	return nil
}

func renderFigure8(h *Harness, w io.Writer) error {
	traces, err := h.Figure8(device.H200())
	if err != nil {
		return err
	}
	RenderFigure8(w, traces)
	return nil
}

func renderTable6(h *Harness, w io.Writer) error {
	rows, err := h.Table6()
	if err != nil {
		return err
	}
	RenderTable6(w, rows)
	return nil
}

func renderFigure9(h *Harness, w io.Writer) error {
	m, pts, err := h.Figure9(device.H200())
	if err != nil {
		return err
	}
	RenderFigure9(w, m, pts)
	return nil
}

// RenderCoverageSection renders Figures 10a, 10b, and 11 — the PCA
// coverage analyses — at the given corpus size (the CLI default is 499;
// `cubie all` uses 199).
func (h *Harness) RenderCoverageSection(w io.Writer, corpus int, spec device.Spec) error {
	gr, err := h.Figure10Graphs(corpus, graphCorpusSeed)
	if err != nil {
		return err
	}
	RenderCoverage(w, "Figure 10a — graph coverage (PCA)", gr)
	mr, err := h.Figure10Matrices(corpus, matrixCorpusSeed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	RenderCoverage(w, "Figure 10b — matrix coverage (PCA)", mr)
	pts, disp, err := h.Figure11(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	RenderFigure11(w, pts, disp)
	return nil
}

func renderWhatif(h *Harness, w io.Writer) error {
	rows, err := h.Counterfactual()
	if err != nil {
		return err
	}
	RenderCounterfactual(w, rows)
	return nil
}

// RenderAblationSection renders every ablation study on one device. The
// run-backed studies read their runs through the harness; the two that
// measure datasets directly are memos (memo.go), named by study.
func (h *Harness) RenderAblationSection(w io.Writer, spec device.Spec) error {
	var all []AblationRow
	rows, err := h.AblateOverlap(spec)
	if err != nil {
		return err
	}
	all = append(all, rows...)
	if rows, err = h.AblateConstCache(spec); err != nil {
		return err
	}
	all = append(all, rows...)
	if rows, err = memo[[]AblationRow](h, "dasp-padding"); err != nil {
		return err
	}
	all = append(all, rows...)
	if rows, err = memo[[]AblationRow](h, "bfs-relabel"); err != nil {
		return err
	}
	all = append(all, rows...)
	if rows, err = AblateSpGEMMPairing(h); err != nil {
		return err
	}
	all = append(all, rows...)
	RenderAblations(w, all)
	return nil
}

// RenderSweepSection renders the bandwidth and tensor-peak provisioning
// sweeps on one device.
func (h *Harness) RenderSweepSection(w io.Writer, spec device.Spec) error {
	bw, err := h.SweepBandwidth(spec)
	if err != nil {
		return err
	}
	RenderSweep(w,
		"DRAM bandwidth sweep on "+spec.Name+" (TC variants, largest cases)",
		"bandwidth", bw)
	fmt.Fprintln(w)
	tc, err := h.SweepTensorPeak(spec)
	if err != nil {
		return err
	}
	RenderSweep(w,
		"FP64 tensor-peak sweep on "+spec.Name,
		"tensor peak", tc)
	return nil
}
