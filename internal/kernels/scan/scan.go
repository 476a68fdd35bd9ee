// Package scan implements the Scan workload following Dakkak et al.
// (ICS '19), reproduced at FP64: each 64-element chunk is laid out as an
// 8×8 block X and prefix-summed with three constant-matrix MMAs —
// (1) X·U with U the upper-triangular ones matrix (row-wise prefix sums),
// (2) Lₛ·M₁ with Lₛ the strictly-lower-triangular ones matrix (previous-row
// totals), and (3) a broadcast MMA folding the previous-row totals back
// into the result. Quadrant II: constant (partial) input, full output.
//
// Table 2's "Size" parameter is the segment length; the suite scans a batch
// of 65536 independent segments per run (the paper's CUB BlockScan baseline
// operates per block, so the benchmark is a batched segmented scan).
package scan

import (
	"fmt"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Batch is the number of independent segments per run.
const Batch = 65536

// sampleElems caps the numerically-executed portion of a case.
const sampleElems = 1 << 20

// Workload is the Scan kernel. Each case's sampled segments are
// synthesized once and shared read-only by every variant's Run and by the
// Reference: no computation writes its input.
type Workload struct {
	operand workload.Operand[[]float64]
}

// New returns the Scan workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "Scan" }

// Quadrant implements workload.Workload (Figure 2, Quadrant II).
func (*Workload) Quadrant() int { return 2 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "MapReduce" }

// Cases returns the five segment sizes of Table 2.
func (*Workload) Cases() []workload.Case {
	var cs []workload.Case
	for _, s := range []int{64, 128, 256, 512, 1024} {
		cs = append(cs, workload.Case{Name: fmt.Sprint(s), Dims: []int{s}})
	}
	return cs
}

// Variants implements workload.Workload.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.Baseline, workload.TC, workload.CC, workload.CCE}
}

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[2] }

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 25000 }

func segSize(c workload.Case) (int, error) {
	if len(c.Dims) != 1 || c.Dims[0] < 1 {
		return 0, fmt.Errorf("scan: case %q needs one positive dim", c.Name)
	}
	return c.Dims[0], nil
}

// sampleSegments returns how many segments are executed numerically.
func sampleSegments(s int) int {
	n := sampleElems / s
	if n > Batch {
		n = Batch
	}
	if n < 1 {
		n = 1
	}
	return n
}

// data returns case c's shared input.
func (w *Workload) data(c workload.Case) []float64 {
	return w.operand.Get("Scan", c, func() []float64 { return input(c.Dims[0]) })
}

// Inputs implements workload.InputReader: Run and Reference read the
// case's operand; Profile reads nothing.
func (w *Workload) Inputs(c workload.Case, _ workload.Variant, op workload.Op) []par.Input {
	if op == workload.OpProfile {
		return nil
	}
	return []par.Input{w.operand.Input(c)}
}

func input(s int) []float64 {
	segs := sampleSegments(s)
	data := make([]float64, s*segs)
	lcg.New(int64(s)).Fill(data)
	return data
}

// The three constant matrices of the TC scan.
var (
	upperOnes   = constTri(false) // U: ones on and above the diagonal
	lowerStrict = constTri(true)  // Lₛ: ones strictly below the diagonal
	broadcast7  = constRow7()     // E₇: ones in row 7 (broadcast last column)
)

func constTri(strictLower bool) []float64 {
	m := make([]float64, 64)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if strictLower && i > j {
				m[i*8+j] = 1
			}
			if !strictLower && i <= j {
				m[i*8+j] = 1
			}
		}
	}
	return m
}

func constRow7() []float64 {
	m := make([]float64, 64)
	for j := 0; j < 8; j++ {
		m[7*8+j] = 1
	}
	return m
}

// mma8x8 multiplies two 8×8 tiles as one fused two-tile m8n8k4 k-sweep
// (k = 0..3, then k = 4..7), accumulating into c. An 8×8 row-major B operand
// is already a two-tile B panel, so it feeds the sweep as-is; A is repacked
// into the caller-provided two-tile panel buffer (len ≥ 64). The per-element
// FMA chain keeps the ascending-k order of the old two-DMMATile sequence, so
// results are bit-identical to it.
func mma8x8(c, a, b, aPanel []float64) {
	mmu.PackA(aPanel, a, 8, 2)
	mmu.DMMAPanel(c, aPanel, b, 2)
}

// Profile implements workload.Workload: the closed-form profile, with no
// segment scanned.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	s, err := segSize(c)
	if err != nil {
		return nil, err
	}
	res := &workload.Result{
		Work:       float64(s) * Batch, // elements scanned
		MetricName: "GElem/s",
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(s)
		// One operand of every MMA is a constant 0/1 matrix: half the
		// input payload is constant structure; the output is fully used.
		res.InputUtil, res.OutputUtil = 0.5, 1
	case workload.CC:
		res.Profile = ccProfile(s)
		res.InputUtil, res.OutputUtil = 0.5, 1
	case workload.CCE:
		res.Profile = cceProfile(s)
	case workload.Baseline:
		res.Profile = baselineProfile(s)
	default:
		return nil, fmt.Errorf("scan: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the sampled segments
// scanned by the variant's algorithm.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	s := c.Dims[0]
	data := w.data(c)
	switch v {
	case workload.TC, workload.CC:
		res.Output = computeMMAScan(data, s)
	case workload.CCE:
		res.Output = computeBlelloch(data, s)
	case workload.Baseline:
		res.Output = computeHillisSteele(data, s)
	}
	return res, nil
}

// Reference implements workload.Workload: serial prefix sum per segment.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	s, err := segSize(c)
	if err != nil {
		return nil, err
	}
	data := w.data(c)
	out := make([]float64, len(data))
	par.ForTiles(len(data)/s, func(lo, hi int) {
		for seg := lo; seg < hi; seg++ {
			base := seg * s
			var acc float64
			for i := 0; i < s; i++ {
				acc += data[base+i]
				out[base+i] = acc
			}
		}
	})
	return out, nil
}

// scanScratch pools the per-segment staging of computeMMAScan: the 8×8
// input block X, the three stage tiles, and the A operand panel (64 each).
var scanScratch = par.NewScratch(5 * 64)

// computeMMAScan is the TC/CC algorithm: per segment, 64-element blocks are
// scanned with the three constant-matrix MMA stages; the running carry is
// folded into the first element of each block. Segments are independent, so
// the segment grid runs through par.ForTiles; each segment's carry chain
// keeps its fixed block order, so results are worker-count independent.
func computeMMAScan(data []float64, s int) []float64 {
	out := make([]float64, len(data))
	par.ForTiles(len(data)/s, func(lo, hi int) {
		buf := scanScratch.Get()
		defer scanScratch.Put(buf)
		x := buf[0:64]
		m1 := buf[64:128]
		m2 := buf[128:192]
		result := buf[192:256]
		aPanel := buf[256:320]
		for seg := lo; seg < hi; seg++ {
			base := seg * s
			var carry float64
			for b0 := 0; b0 < s; b0 += 64 {
				n := min(64, s-b0)
				for i := range x {
					if i < n {
						x[i] = data[base+b0+i]
					} else {
						x[i] = 0
					}
				}
				x[0] += carry
				for i := range m1 {
					m1[i], m2[i] = 0, 0
				}
				mma8x8(m1, x, upperOnes, aPanel)    // row-wise prefix sums
				mma8x8(m2, lowerStrict, m1, aPanel) // previous-row totals (all cols)
				copy(result, m1)
				mma8x8(result, m2, broadcast7, aPanel) // fold totals: m1 + m2·E₇
				copy(out[base+b0:base+b0+n], result[:n])
				carry = result[63]
				if n < 64 {
					carry = result[n-1]
				}
			}
		}
	})
	return out
}

// computeBlelloch is the CC-E essential scan: the work-efficient up-sweep /
// down-sweep tree per segment — a different accumulation order than the MMA
// stages (Table 6).
func computeBlelloch(data []float64, s int) []float64 {
	out := make([]float64, len(data))
	// Round the working buffer up to a power of two.
	p2 := 1
	for p2 < s {
		p2 *= 2
	}
	par.ForTiles(len(data)/s, func(lo, hi int) {
		buf := make([]float64, p2) // one working buffer per worker range
		for seg := lo; seg < hi; seg++ {
			base := seg * s
			for i := range buf {
				if i < s {
					buf[i] = data[base+i]
				} else {
					buf[i] = 0
				}
			}
			for stride := 1; stride < p2; stride *= 2 {
				for i := 2*stride - 1; i < p2; i += 2 * stride {
					buf[i] += buf[i-stride]
				}
			}
			total := buf[p2-1]
			buf[p2-1] = 0
			for stride := p2 / 2; stride >= 1; stride /= 2 {
				for i := 2*stride - 1; i < p2; i += 2 * stride {
					t := buf[i-stride]
					buf[i-stride] = buf[i]
					buf[i] += t
				}
			}
			// Blelloch produces an exclusive scan; convert to inclusive.
			for i := 0; i < s-1; i++ {
				out[base+i] = buf[i+1]
			}
			out[base+s-1] = total
		}
	})
	return out
}

// computeHillisSteele is the CUB BlockScan-class baseline: log₂(s) doubling
// passes per segment.
func computeHillisSteele(data []float64, s int) []float64 {
	out := make([]float64, len(data))
	par.ForTiles(len(data)/s, func(lo, hi int) {
		cur := make([]float64, s) // double buffer per worker range
		next := make([]float64, s)
		for seg := lo; seg < hi; seg++ {
			base := seg * s
			copy(cur, data[base:base+s])
			for stride := 1; stride < s; stride *= 2 {
				for i := 0; i < s; i++ {
					if i >= stride {
						next[i] = cur[i] + cur[i-stride]
					} else {
						next[i] = cur[i]
					}
				}
				cur, next = next, cur
			}
			copy(out[base:base+s], cur)
		}
	})
	return out
}

// Profiles. Scan is a streaming kernel: 8 B read + 8 B written per element.

func blocks(s int) float64 { return float64((s+63)/64) * Batch }

func tcProfile(s int) sim.Profile {
	elems := float64(s) * Batch
	nb := blocks(s)
	return sim.Profile{
		TensorFLOPs: nb * 6 * mmu.FLOPsPerDMMA, // 3 stages × 2 MMAs per block
		DRAMBytes:   2 * elems * sim.BytesF64,
		// The constant operands come from the constant cache: near-free
		// broadcast instead of global traffic — the Quadrant II advantage.
		ConstBytes: nb * 3 * 64 * sim.BytesF64,
		L1Bytes:    nb * 3 * 512, // X in, result out, inter-stage staging
		Launches:   1,
		SyncSteps:  float64((s + 63) / 64), // per-segment carry chain
		Overlap:    0.90,
		Eff: sim.Efficiency{
			// Constant operands stay register-resident: near-peak issue.
			Tensor: 0.70,
			DRAM:   sim.EffLibrary,
			L1:     0.9,
		},
	}
}

func ccProfile(s int) sim.Profile {
	p := tcProfile(s)
	p.VectorFLOPs, p.TensorFLOPs = p.TensorFLOPs, 0
	// Without the tensor path the constant matrices are loaded as regular
	// shared-memory operands for every scalar FMA chain (Section 6.2:
	// "CUDA cores do not leverage these constant operands as much").
	p.ConstBytes = 0
	p.L1Bytes += blocks(s) * 6 * 1024
	p.Overlap = 0.30
	p.Eff = sim.Efficiency{Vector: 0.22, DRAM: sim.EffLibrary, L1: 0.9}
	return p
}

func cceProfile(s int) sim.Profile {
	elems := float64(s) * Batch
	return sim.Profile{
		// Work-efficient scan: ~2 adds per element over two tree sweeps.
		VectorFLOPs: 2 * elems,
		// Up-sweep and down-sweep each stream the data: two full passes.
		DRAMBytes: 4 * elems * sim.BytesF64,
		L1Bytes:   2 * elems * sim.BytesF64 * logish(s),
		Launches:  1,
		SyncSteps: 2 * logish(s),
		Overlap:   0.70,
		Eff: sim.Efficiency{
			Vector: 0.40,
			DRAM:   0.60, // strided tree access
			L1:     0.7,
		},
	}
}

func baselineProfile(s int) sim.Profile {
	elems := float64(s) * Batch
	return sim.Profile{
		// Hillis–Steele: log₂(s) adds per element.
		VectorFLOPs: elems * logish(s),
		DRAMBytes:   2 * elems * sim.BytesF64,
		// CUB's doubling passes run on warp shuffles; shared memory only
		// carries the per-warp aggregates.
		L1Bytes:   elems * 24,
		Launches:  1,
		SyncSteps: logish(s),
		Overlap:   0.60,
		Eff: sim.Efficiency{
			Vector: sim.EffModerate,
			DRAM:   0.62,
			L1:     0.6,
		},
	}
}

func logish(s int) float64 {
	l := 0.0
	for v := 1; v < s; v *= 2 {
		l++
	}
	return l
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
