// Package reduction implements the Reduction workload following Dakkak et
// al. (ICS '19) at FP64: each 64-element chunk is laid out as an 8×8 block
// and reduced with two constant-matrix MMAs — (1) A₁·X with A₁ holding ones
// in its first row (column sums land in row 0) and (2) R·B₂ with B₂ holding
// ones in its first column (the block total lands in element (0,0)).
// Quadrant III: partial (constant) input AND partial output — only one row,
// then one element, of each 8×8 tile is meaningful.
//
// Table 2's "Size" is the segment length; the suite reduces a batch of
// 65536 independent segments per run (the CUB BlockReduce baseline is a
// per-block primitive).
package reduction

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

// Workload is the Reduction kernel. Each case's sampled segments are
// synthesized once and shared read-only by every variant's Run and by the
// Reference: no computation writes its input.
type Workload struct {
	operand workload.Operand[[]float64]
}

// New returns the Reduction workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "Reduction" }

// Quadrant implements workload.Workload (Figure 2, Quadrant III).
func (*Workload) Quadrant() int { return 3 }

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
func (*Workload) Repeats() int { return 50000 }

func segSize(c workload.Case) (int, error) {
	if len(c.Dims) != 1 || c.Dims[0] < 1 {
		return 0, fmt.Errorf("reduction: case %q needs one positive dim", c.Name)
	}
	return c.Dims[0], nil
}

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
	return w.operand.Get("Reduction", c, func() []float64 { return input(c.Dims[0]) })
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
	lcg.New(int64(s) * 3).Fill(data)
	return data
}

// The two constant matrices.
var (
	onesRow0 = func() []float64 { // A₁: ones in row 0
		m := make([]float64, 64)
		for j := 0; j < 8; j++ {
			m[j] = 1
		}
		return m
	}()
	onesCol0 = func() []float64 { // B₂: ones in column 0
		m := make([]float64, 64)
		for i := 0; i < 8; i++ {
			m[i*8] = 1
		}
		return m
	}()
)

// mma8x8 multiplies two 8×8 tiles as one fused two-tile m8n8k4 k-sweep. The
// row-major 8×8 B operand is already a two-tile B panel; A is repacked into
// the caller-provided two-tile panel buffer (len ≥ 64). Per-element FMA
// order matches the old two-DMMATile sequence bit for bit.
func mma8x8(c, a, b, aPanel []float64) {
	mmu.PackA(aPanel, a, 8, 2)
	mmu.DMMAPanel(c, aPanel, b, 2)
}

// Profile implements workload.Workload: the closed-form profile, with no
// segment reduced.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	s, err := segSize(c)
	if err != nil {
		return nil, err
	}
	res := &workload.Result{
		Work:       float64(s) * Batch,
		MetricName: "GElem/s",
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(s)
		// Constant operands carry a single meaningful row/column; only one
		// element of the final output tile is consumed.
		res.InputUtil, res.OutputUtil = 0.5, 1.0/64
	case workload.CC:
		res.Profile = ccProfile(s)
		res.InputUtil, res.OutputUtil = 0.5, 1.0/64
	case workload.CCE:
		res.Profile = cceProfile(s)
	case workload.Baseline:
		res.Profile = baselineProfile(s)
	default:
		return nil, fmt.Errorf("reduction: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the sampled segments
// reduced by the variant's algorithm.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	s := c.Dims[0]
	data := w.data(c)
	switch v {
	case workload.TC, workload.CC:
		res.Output = computeMMAReduce(data, s)
	case workload.CCE:
		res.Output = computePairwise(data, s)
	case workload.Baseline:
		res.Output = computeShuffleTree(data, s)
	}
	return res, nil
}

// Reference implements workload.Workload: serial sums per segment.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	s, err := segSize(c)
	if err != nil {
		return nil, err
	}
	data := w.data(c)
	out := make([]float64, len(data)/s)
	par.ForTiles(len(out), func(lo, hi int) {
		for seg := lo; seg < hi; seg++ {
			var acc float64
			for i := 0; i < s; i++ {
				acc += data[seg*s+i]
			}
			out[seg] = acc
		}
	})
	return out, nil
}

// reduceScratch pools the per-segment staging of computeMMAReduce: the 8×8
// input block X, the two stage tiles, and the A operand panel (64 each).
var reduceScratch = par.NewScratch(4 * 64)

// computeMMAReduce is the TC/CC algorithm: per block, A₁·X folds the eight
// rows into row 0, then R·B₂ folds row 0 into element (0,0); block totals
// accumulate into the segment sum in block order. Segments write disjoint
// out slots, so the segment grid runs through par.ForTiles; each segment's
// block-order accumulation is unchanged, keeping results worker-count
// independent.
func computeMMAReduce(data []float64, s int) []float64 {
	out := make([]float64, len(data)/s)
	par.ForTiles(len(out), func(lo, hi int) {
		buf := reduceScratch.Get()
		defer reduceScratch.Put(buf)
		x := buf[0:64]
		r1 := buf[64:128]
		r2 := buf[128:192]
		aPanel := buf[192:256]
		for seg := lo; seg < hi; seg++ {
			var acc float64
			for b0 := 0; b0 < s; b0 += 64 {
				n := min(64, s-b0)
				for i := range x {
					if i < n {
						x[i] = data[seg*s+b0+i]
					} else {
						x[i] = 0
					}
				}
				for i := range r1 {
					r1[i], r2[i] = 0, 0
				}
				mma8x8(r1, onesRow0, x, aPanel)  // column sums in row 0
				mma8x8(r2, r1, onesCol0, aPanel) // block total in (0,0)
				acc += r2[0]
			}
			out[seg] = acc
		}
	})
	return out
}

// computePairwise is the CC-E essential reduction: a binary pairwise tree
// per segment — the classic work-efficient order, different from the MMA's
// row/column folding (Table 6).
func computePairwise(data []float64, s int) []float64 {
	out := make([]float64, len(data)/s)
	par.ForTiles(len(out), func(lo, hi int) {
		buf := make([]float64, s) // one working buffer per worker range
		for seg := lo; seg < hi; seg++ {
			copy(buf, data[seg*s:(seg+1)*s])
			n := s
			for n > 1 {
				half := (n + 1) / 2
				for i := 0; i < n/2; i++ {
					buf[i] = buf[2*i] + buf[2*i+1]
				}
				if n%2 == 1 {
					buf[n/2] = buf[n-1]
				}
				n = half
			}
			out[seg] = buf[0]
		}
	})
	return out
}

// computeShuffleTree is the CUB BlockReduce-class baseline: stride-halving
// warp-shuffle reduction.
func computeShuffleTree(data []float64, s int) []float64 {
	out := make([]float64, len(data)/s)
	p2 := 1
	for p2 < s {
		p2 *= 2
	}
	par.ForTiles(len(out), func(lo, hi int) {
		buf := make([]float64, p2) // one working buffer per worker range
		for seg := lo; seg < hi; seg++ {
			for i := range buf {
				if i < s {
					buf[i] = data[seg*s+i]
				} else {
					buf[i] = 0
				}
			}
			for stride := p2 / 2; stride >= 1; stride /= 2 {
				for i := 0; i < stride; i++ {
					buf[i] += buf[i+stride]
				}
			}
			out[seg] = buf[0]
		}
	})
	return out
}

// Profiles. Reduction streams 8 B per element and writes almost nothing:
// the lowest arithmetic intensity in the suite (Figure 9, ~10⁻¹).

func blocks(s int) float64 { return float64((s+63)/64) * Batch }

func tcProfile(s int) sim.Profile {
	elems := float64(s) * Batch
	nb := blocks(s)
	return sim.Profile{
		TensorFLOPs: nb * 4 * mmu.FLOPsPerDMMA, // 2 stages × 2 MMAs per block
		DRAMBytes:   elems*sim.BytesF64 + Batch*sim.BytesF64,
		ConstBytes:  nb * 2 * 64 * sim.BytesF64,
		L1Bytes:     nb * 2 * 512,
		Launches:    1,
		SyncSteps:   float64((s + 63) / 64),
		Overlap:     0.90,
		Eff: sim.Efficiency{
			// The constant operand stays resident in the MMA register
			// file, so issue runs near peak (the Quadrant III advantage).
			Tensor: 0.75,
			DRAM:   0.90,
			L1:     0.9,
		},
	}
}

func ccProfile(s int) sim.Profile {
	p := tcProfile(s)
	p.VectorFLOPs, p.TensorFLOPs = p.TensorFLOPs, 0
	// Constant operands become regular loads per scalar FMA chain.
	p.ConstBytes = 0
	p.L1Bytes += blocks(s) * 4 * 1024
	p.Overlap = 0.30
	p.Eff = sim.Efficiency{Vector: 0.15, DRAM: 0.90, L1: 0.9}
	return p
}

func cceProfile(s int) sim.Profile {
	elems := float64(s) * Batch
	return sim.Profile{
		VectorFLOPs: elems, // one add per element
		DRAMBytes:   elems*sim.BytesF64 + Batch*sim.BytesF64,
		L1Bytes:     elems * sim.BytesF64,
		Launches:    1,
		SyncSteps:   logish(s),
		Overlap:     0.70,
		Eff: sim.Efficiency{
			Vector: 0.40,
			DRAM:   0.70, // tree strides break perfect streaming
			L1:     0.7,
		},
	}
}

func baselineProfile(s int) sim.Profile {
	elems := float64(s) * Batch
	return sim.Profile{
		VectorFLOPs: elems,
		DRAMBytes:   elems*sim.BytesF64 + Batch*sim.BytesF64,
		L1Bytes:     elems * sim.BytesF64 * 2,
		Launches:    1,
		SyncSteps:   logish(s),
		Overlap:     0.65,
		Eff: sim.Efficiency{
			Vector: sim.EffModerate,
			DRAM:   0.65, // CUB's two-phase (block + grid) reduction
			L1:     0.7,
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
