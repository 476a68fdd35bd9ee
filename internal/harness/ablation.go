package harness

import (
	"fmt"
	"io"

	"repro/internal/device"
	"repro/internal/kernels/bfs"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// AblationRow is one measurement of an ablation study: a design choice
// toggled off, and the metric movement that justifies keeping it on.
type AblationRow struct {
	Study    string
	Subject  string  // workload / dataset the row measures
	Baseline float64 // metric with the design choice enabled
	Ablated  float64 // metric with it disabled
	Metric   string
}

// Ratio returns Ablated/Baseline.
func (r AblationRow) Ratio() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return r.Ablated / r.Baseline
}

// AblateOverlap quantifies the compute/memory overlap term of the execution
// model (sim.Profile.Overlap): CC-variant times with the calibrated overlap
// versus a pure bottleneck (overlap = 1) model. Without the term, the
// memory-bound CC variants collapse onto their TC counterparts and the
// paper's Figure 5 gaps (Section 6.2) disappear.
func (h *Harness) AblateOverlap(spec device.Spec) ([]AblationRow, error) {
	var keys []RunKey
	for _, w := range h.Suite.Workloads() {
		keys = append(keys, RunKey{w.Name(), w.Representative().Name, workload.CC})
	}
	if err := h.Execute(keys); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, w := range h.Suite.Workloads() {
		res, err := h.run(w, w.Representative(), workload.CC)
		if err != nil {
			return nil, err
		}
		withOverlap := sim.Run(spec, res.Profile).Time
		p := res.Profile
		p.Overlap = 1 // perfect overlap: pure max-of-resources
		pure := sim.Run(spec, p).Time
		rows = append(rows, AblationRow{
			Study:    "overlap-model",
			Subject:  w.Name() + "/CC",
			Baseline: withOverlap,
			Ablated:  pure,
			Metric:   "time (s)",
		})
	}
	return rows, nil
}

// AblateConstCache quantifies the constant-memory broadcast of the
// Quadrant II/III kernels: the Scan and Reduction TC profiles with their
// constant operands served by the constant cache versus re-fetched through
// L1 per MMA (what the CC replacement effectively pays — Section 6.2's
// "CUDA cores do not leverage these constant operands as much").
func (h *Harness) AblateConstCache(spec device.Spec) ([]AblationRow, error) {
	var rows []AblationRow
	for _, name := range []string{"Scan", "Reduction"} {
		w, err := h.Suite.ByName(name)
		if err != nil {
			return nil, err
		}
		res, err := h.run(w, w.Representative(), workload.TC)
		if err != nil {
			return nil, err
		}
		withConst := sim.Run(spec, res.Profile).Time
		p := res.Profile
		// Serve the constant operands through L1 at fragment granularity
		// (each 64-element constant matrix re-staged per MMA: 16× the
		// broadcast traffic).
		p.L1Bytes += p.ConstBytes * 16
		p.ConstBytes = 0
		ablated := sim.Run(spec, p).Time
		rows = append(rows, AblationRow{
			Study:    "const-cache",
			Subject:  name + "/TC",
			Baseline: withConst,
			Ablated:  ablated,
			Metric:   "time (s)",
		})
	}
	return rows, nil
}

// AblateDASPPadding measures the redundancy the DASP layout introduces per
// Table 4 matrix: MMA-issued FLOPs versus essential FLOPs (2·nnz). This is
// the quantity Observation 5 weighs against the layout's streaming wins.
func AblateDASPPadding() ([]AblationRow, error) {
	var rows []AblationRow
	for _, d := range sparse.Table4() {
		m, err := sparse.SynthesizeShared(d.Name)
		if err != nil {
			return nil, err
		}
		essential := 2 * float64(m.NNZ())
		issued := float64(sparse.DASPPaddedSlots(m)) * 16 // 512 FLOPs per 32-slot MMA
		rows = append(rows, AblationRow{
			Study:    "dasp-padding",
			Subject:  d.Name,
			Baseline: essential,
			Ablated:  issued,
			Metric:   "FP64 FLOPs",
		})
	}
	return rows, nil
}

// AblateBFSRelabel measures the BerryBees BFS-order relabeling: the number
// of 8×128 bitmap blocks (the traversal's memory footprint) with and
// without the preprocessing, per Table 3 graph. Without relabeling the
// scattered neighborhoods inflate the slice set several-fold. The enabled
// arm is the BFS case's own slice set, so once the BFS cases ran, the
// study synthesizes and relabels nothing; the ablated arm counts the
// synthesized graph's blocks (graph.BlockCount) without packing them.
func AblateBFSRelabel(h *Harness) ([]AblationRow, error) {
	w, err := h.Suite.ByName("BFS")
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, c := range w.Cases() {
		relabeled, original, err := w.(*bfs.Workload).BlockCounts(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Study:    "bfs-relabel",
			Subject:  c.Dataset,
			Baseline: float64(relabeled),
			Ablated:  float64(original),
			Metric:   "8x128 bitmap blocks",
		})
	}
	return rows, nil
}

// AblateSpGEMMPairing measures the AmgT pairing of two 4×4×4 block
// products per m8n8k4 MMA: instruction counts with pairing versus one
// product per MMA, per Table 4 matrix.
func AblateSpGEMMPairing(h *Harness) ([]AblationRow, error) {
	spg, err := h.Suite.ByName("SpGEMM")
	if err != nil {
		return nil, err
	}
	var keys []RunKey
	for _, c := range spg.Cases() {
		keys = append(keys, RunKey{spg.Name(), c.Name, workload.TC})
	}
	if err := h.Execute(keys); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, c := range spg.Cases() {
		res, err := h.run(spg, c, workload.TC)
		if err != nil {
			return nil, err
		}
		paired := res.Profile.TensorFLOPs / 512 // MMAs issued with pairing
		rows = append(rows, AblationRow{
			Study:    "spgemm-pairing",
			Subject:  c.Name,
			Baseline: paired,
			Ablated:  paired * 2, // one block product per MMA
			Metric:   "MMA instructions",
		})
	}
	return rows, nil
}

// RenderAblations prints ablation rows grouped by study.
func RenderAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablation studies — design choices toggled off")
	last := ""
	for _, r := range rows {
		if r.Study != last {
			fmt.Fprintf(w, "\n[%s] (%s)\n", r.Study, r.Metric)
			last = r.Study
		}
		fmt.Fprintf(w, "  %-24s enabled %12.4g   ablated %12.4g   ratio %6.2fx\n",
			r.Subject, r.Baseline, r.Ablated, r.Ratio())
	}
}
