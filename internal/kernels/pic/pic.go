// Package pic implements the Particle-in-Cell workload following PiCTC
// (Mehta, 2019) adapted to FP64: the Boris push advances charged particles
// in uniform electromagnetic fields, with the velocity rotation and field
// kicks of eight-particle batches mapped onto 8×4 · 4×8 FP64 MMAs whose
// operand matrices are built from the field tensors — Quadrant I: full
// input and output, inputs repeatedly loaded into one accumulated result.
//
// PiC has no external baseline in Table 2; its variants are TC and CC.
package pic

import (
	"fmt"

	"repro/internal/lcg"
	"repro/internal/mmu"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// computeBudget caps the number of particles a case pushes for real.
const computeBudget = 1 << 18

// Simulation constants (uniform fields, normalized charge/mass).
const (
	dt = 0.01
	ex = 0.3
	ey = -0.2
	ez = 0.1
	bx = 0.0
	by = 0.0
	bz = 1.0
)

// Workload is the PiC kernel. Every variant and the Reference push their
// particle state in place, so each synthesizes its own copy: there is no
// operand to share.
type Workload struct{}

// New returns the PiC workload.
func New() *Workload { return &Workload{} }

// Name implements workload.Workload.
func (*Workload) Name() string { return "PiC" }

// Quadrant implements workload.Workload (Figure 2, Quadrant I).
func (*Workload) Quadrant() int { return 1 }

// Dwarf implements workload.Workload.
func (*Workload) Dwarf() string { return "N-Body" }

// Cases returns the five particle counts of Table 2.
func (*Workload) Cases() []workload.Case {
	mk := func(n int, name string) workload.Case {
		return workload.Case{Name: name, Dims: []int{n}}
	}
	return []workload.Case{
		mk(64<<10, "64K"),
		mk(128<<10, "128K"),
		mk(256<<10, "256K"),
		mk(512<<10, "512K"),
		mk(1<<20, "1M"),
	}
}

// Variants implements workload.Workload: PiC has no library baseline
// (Table 2 lists "-"); CC-E ≡ CC in Quadrant I.
func (*Workload) Variants() []workload.Variant {
	return []workload.Variant{workload.TC, workload.CC}
}

// Representative implements workload.Workload.
func (w *Workload) Representative() workload.Case { return w.Cases()[0] }

// Repeats implements workload.Workload (Figure 7 loop count).
func (*Workload) Repeats() int { return 60 }

func particles(c workload.Case) (int, error) {
	if len(c.Dims) != 1 || c.Dims[0] < 1 {
		return 0, fmt.Errorf("pic: case %q needs one positive dim", c.Name)
	}
	return c.Dims[0], nil
}

// state is the flattened particle state: x, y, z, vx, vy, vz per particle.
func initState(n int) []float64 {
	s := make([]float64, 6*n)
	lcg.New(int64(n)).Fill(s)
	return s
}

// Profile implements workload.Workload: the closed-form profile, with no
// particle pushed.
func (w *Workload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	n, err := particles(c)
	if err != nil {
		return nil, err
	}
	res := &workload.Result{
		Work:       float64(n),
		MetricName: "Gpart/s",
	}
	switch v {
	case workload.TC:
		res.Profile = tcProfile(n)
		res.InputUtil, res.OutputUtil = 1, 1
	case workload.CC, workload.CCE:
		res.Profile = ccProfile(n)
		res.InputUtil, res.OutputUtil = 1, 1
	default:
		return nil, fmt.Errorf("pic: unknown variant %q", v)
	}
	return res, nil
}

// Run implements workload.Workload: the profile, plus the pushed particle
// state when the case fits the compute budget.
func (w *Workload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Profile(c, v)
	if err != nil {
		return nil, err
	}
	if n := c.Dims[0]; n <= computeBudget {
		st := initState(n)
		pushMMA(st)
		res.Output = st
	}
	return res, nil
}

// Reference implements workload.Workload: a serial Boris push with separate
// multiplies and adds.
func (w *Workload) Reference(c workload.Case) ([]float64, error) {
	n, err := particles(c)
	if err != nil {
		return nil, err
	}
	if n > computeBudget {
		return nil, fmt.Errorf("pic: case %q exceeds the compute budget", c.Name)
	}
	st := initState(n)
	hx, hy, hz := 0.5*dt*bx, 0.5*dt*by, 0.5*dt*bz
	h2 := hx*hx + hy*hy + hz*hz
	sx, sy, sz := 2*hx/(1+h2), 2*hy/(1+h2), 2*hz/(1+h2)
	for p := 0; p < n; p++ {
		v := st[6*p+3 : 6*p+6]
		// Half electric kick.
		vx := v[0] + 0.5*dt*ex
		vy := v[1] + 0.5*dt*ey
		vz := v[2] + 0.5*dt*ez
		// Rotation: v' = v + (v + v×h)×s.
		tx := vx + vy*hz - vz*hy
		ty := vy + vz*hx - vx*hz
		tz := vz + vx*hy - vy*hx
		vx2 := vx + ty*sz - tz*sy
		vy2 := vy + tz*sx - tx*sz
		vz2 := vz + tx*sy - ty*sx
		// Second half kick.
		vx2 += 0.5 * dt * ex
		vy2 += 0.5 * dt * ey
		vz2 += 0.5 * dt * ez
		v[0], v[1], v[2] = vx2, vy2, vz2
		st[6*p+0] += dt * vx2
		st[6*p+1] += dt * vy2
		st[6*p+2] += dt * vz2
	}
	return st, nil
}

// rotationOperand builds the 4×8 B operand whose first four columns apply a
// linear map M to the velocity 4-vectors stacked in the A operand rows:
// (V·B)[p][j] = Σ_k V[p][k]·M[k][j]. Columns 4–7 are zero.
func rotationOperand(m [4][4]float64) []float64 {
	b := make([]float64, mmu.K*mmu.N)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			b[k*mmu.N+j] = m[k][j]
		}
	}
	return b
}

// pushMMA advances the state one Boris step with the PiCTC mapping: eight
// particles per batch, velocities as 8×4 blocks (vx, vy, vz, 1 — the
// homogeneous column carries the electric kick), transformed by two MMA
// applications (v → t, then the rotation/kick map), and a final MMA for the
// position update. TC and CC share this exact code path (the CC variant
// executes the same FMA chains on the vector unit), so they are
// bit-identical (Table 6: PiC TC/CC agree).
func pushMMA(st []float64) {
	hx, hy, hz := 0.5*dt*bx, 0.5*dt*by, 0.5*dt*bz
	h2 := hx*hx + hy*hy + hz*hz
	sx, sy, sz := 2*hx/(1+h2), 2*hy/(1+h2), 2*hz/(1+h2)

	// Map 1: homogeneous half-kick — v' = v + (dt/2)E, last column kept 1.
	kick := [4][4]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0.5 * dt * ex, 0.5 * dt * ey, 0.5 * dt * ez, 1},
	}
	// Map 2: t = v + v×h (homogeneous, h constant).
	cross1 := [4][4]float64{
		{1, -hz, hy, 0},
		{hz, 1, -hx, 0},
		{-hy, hx, 1, 0},
		{0, 0, 0, 1},
	}
	// Map 3: rotation completion applied to t: r = t×s (pure cross term).
	cross2 := [4][4]float64{
		{0, -sz, sy, 0},
		{sz, 0, -sx, 0},
		{-sy, sx, 0, 0},
		{0, 0, 0, 0},
	}

	bKick := rotationOperand(kick)
	bCross1 := rotationOperand(cross1)
	bCross2 := rotationOperand(cross2)

	n := len(st) / 6
	batches := (n + mmu.M - 1) / mmu.M
	// Eight-particle batches touch disjoint state slices, so the batch grid
	// runs through par.ForTiles; each batch's four-MMA chain keeps its
	// fixed order, so TC and CC stay bit-identical at any worker count.
	par.ForTiles(batches, func(lo, hi int) {
		buf := picScratch.Get()
		defer picScratch.Put(buf)
		vBlk := buf[0 : mmu.M*mmu.K]
		c1 := buf[mmu.M*mmu.K : mmu.M*mmu.K+mmu.M*mmu.N]
		c2 := buf[mmu.M*mmu.K+mmu.M*mmu.N:]
		for b := lo; b < hi; b++ {
			p0 := b * mmu.M
			cnt := min(mmu.M, n-p0)
			for r := 0; r < mmu.M; r++ {
				if r < cnt {
					p := p0 + r
					vBlk[r*4+0] = st[6*p+3]
					vBlk[r*4+1] = st[6*p+4]
					vBlk[r*4+2] = st[6*p+5]
					vBlk[r*4+3] = 1
				} else {
					vBlk[r*4+0], vBlk[r*4+1], vBlk[r*4+2], vBlk[r*4+3] = 0, 0, 0, 0
				}
			}
			// Half kick: V1 = V·Kick.
			for i := range c1 {
				c1[i] = 0
			}
			mmu.DMMAPanel(c1, vBlk, bKick, 1)
			// t = v1·Cross1.
			for r := 0; r < mmu.M; r++ {
				copy(vBlk[r*4:], c1[r*mmu.N:r*mmu.N+4])
			}
			for i := range c2 {
				c2[i] = 0
			}
			mmu.DMMAPanel(c2, vBlk, bCross1, 1)
			// v2 = v1 + t·Cross2: c1 already holds v1 and serves as the MMA
			// accumulator while t (in c2) multiplies the second cross map.
			for r := 0; r < mmu.M; r++ {
				copy(vBlk[r*4:], c2[r*mmu.N:r*mmu.N+4])
			}
			mmu.DMMAPanel(c1, vBlk, bCross2, 1)
			// Second half kick: V3 = V2·Kick (reload rows into the A block).
			for r := 0; r < mmu.M; r++ {
				copy(vBlk[r*4:], c1[r*mmu.N:r*mmu.N+4])
				vBlk[r*4+3] = 1
			}
			for i := range c2 {
				c2[i] = 0
			}
			mmu.DMMAPanel(c2, vBlk, bKick, 1)
			// Write back velocities and advance positions.
			for r := 0; r < cnt; r++ {
				p := p0 + r
				vx := c2[r*mmu.N+0]
				vy := c2[r*mmu.N+1]
				vz := c2[r*mmu.N+2]
				st[6*p+3], st[6*p+4], st[6*p+5] = vx, vy, vz
				st[6*p+0] = mmu.FMA(dt, vx, st[6*p+0])
				st[6*p+1] = mmu.FMA(dt, vy, st[6*p+1])
				st[6*p+2] = mmu.FMA(dt, vz, st[6*p+2])
			}
		}
	})
}

// picScratch pools the per-batch staging of pushMMA: the velocity A block
// (32) and two C accumulators (64 each).
var picScratch = par.NewScratch(mmu.M*mmu.K + 2*mmu.M*mmu.N)

// Profiles: four MMAs per eight-particle batch (256 MMA FLOPs per
// particle) against ~60 essential FLOPs; particle state is streamed.

func tcProfile(n int) sim.Profile {
	fn := float64(n)
	return sim.Profile{
		TensorFLOPs: fn * 256,
		DRAMBytes:   fn * 12 * sim.BytesF64, // x, v read + write
		ConstBytes:  fn * 2,                 // field maps broadcast
		L1Bytes:     fn * 4 * 128,           // block staging per MMA
		Launches:    1,
		Overlap:     0.90,
		Eff: sim.Efficiency{
			Tensor: 0.55,
			DRAM:   sim.EffLibrary,
			L1:     0.9,
		},
	}
}

func ccProfile(n int) sim.Profile {
	p := tcProfile(n)
	p.VectorFLOPs, p.TensorFLOPs = p.TensorFLOPs, 0
	p.ConstBytes = 0
	p.L1Bytes *= 1.5 // operand maps staged per scalar chain
	p.Overlap = 0.30
	p.Eff = sim.Efficiency{Vector: 0.22, DRAM: sim.EffLibrary, L1: 0.9}
	return p
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
