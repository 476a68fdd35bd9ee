package main

// cg-solve runs in-process. Set-up makes each Table 4 matrix SPD as
// examples/cg-solver does, builds its spmv.Operator and applies it once;
// a sample solves all five systems by CG. Every iteration reuses the
// prestaged operands, so changes to prestage, packcache or the gather path
// show here and not in the campaigns.

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/kernels/spmv"
	"repro/internal/lcg"
	"repro/internal/sparse"
)

// Solve settings and the bounds every solution is checked against.
const (
	cgTol           = 1e-10 // relative residual CG iterates to
	cgMaxIters      = 500
	cgResidualBound = 1e-9 // true relative residual ‖b − A·x‖/‖b‖
	cgErrorBound    = 1e-7 // max |x − x_true|
)

// setupReps is how often cg-solve repeats its set-up; setup_s is the
// median.
const setupReps = 3

// cgSystem is one SPD system A·x = b with a known solution.
type cgSystem struct {
	name  string
	a     *sparse.CSR
	op    *spmv.Operator
	b     []float64
	xTrue []float64
}

// cgBuild is the time a set-up spent in the operator's layer, summed over
// systems.
type cgBuild struct {
	build, firstApply time.Duration
}

func (b *bench) measureCG() error {
	// Set-up: build the systems, then a warm-up sweep.
	err := b.setUp(setupReps, func() error {
		b.cg = nil
		runtime.GC() // drop the previous set-up's systems
		sys, _, err := buildCG(matrixNames(), b.seed, nil, span{})
		if err != nil {
			return err
		}
		b.cg = sys
		if _, ok := b.cgSweep(nil, span{}); !ok {
			return fmt.Errorf("cg: warm-up sweep failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.repeat(b.budget, func() (time.Duration, bool) { return b.cgSweep(nil, span{}) })
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	b.rssMB = append(b.rssMB, float64(ru.Maxrss)/1024)
	return nil
}

func (b *bench) tracedCG(tr *tracer, parent span) (time.Duration, error) {
	d, ok := b.cgSweep(tr, parent)
	if !ok {
		return 0, fmt.Errorf("cg: traced sweep failed")
	}
	return d, nil
}

// matrixNames lists the Table 4 matrices.
func matrixNames() []string {
	var names []string
	for _, d := range sparse.Table4() {
		names = append(names, d.Name)
	}
	return names
}

// buildCG synthesizes the named Table 4 matrices afresh, makes each SPD,
// builds its operator, draws x_true from the seed, and computes b = A·x_true
// with a plain CSR product. The operator's first apply, which builds its
// prestaged slabs, is part of the build.
func buildCG(names []string, seed int64, tr *tracer, parent span) ([]cgSystem, cgBuild, error) {
	var sys []cgSystem
	var t cgBuild
	for i, name := range names {
		sp := tr.begin(parent, "sparse", "synth "+name)
		m, err := sparse.Synthesize(name)
		sp.end()
		if err != nil {
			return nil, t, err
		}
		sp = tr.begin(parent, "cg", "spd "+name)
		a := makeSPD(m)
		sp.end()
		sp = tr.begin(parent, "spmv", "build "+name)
		op := spmv.NewOperator(a)
		t.build += sp.end()

		s := cgSystem{name: name, a: a, op: op, xTrue: make([]float64, a.Rows)}
		lcg.New(seed*1000 + int64(i)).Fill(s.xTrue)
		sp = tr.begin(parent, "spmv", "first apply "+name)
		op.Apply(s.xTrue)
		t.firstApply += sp.end()
		s.b = csrApply(a, s.xTrue)
		sys = append(sys, s)
	}
	return sys, t, nil
}

// cgSweep solves every system once and checks each solution. Each solve is
// one operation; the sample is their summed time.
func (b *bench) cgSweep(tr *tracer, parent span) (time.Duration, bool) {
	var total time.Duration
	ok := true
	for _, s := range b.cg {
		b.attempted++
		sp := tr.begin(parent, "cg", "solve "+s.name)
		x, _, err := cgSolve(s, tr, sp)
		d := sp.end()
		if err == nil {
			err = s.check(x)
		}
		if !b.check(err) {
			ok = false
			continue
		}
		total += d
	}
	return total, ok
}

// cgSolve runs CG from x = 0 until the recursive residual falls below
// cgTol relative to ‖b‖, as in examples/cg-solver.
func cgSolve(s cgSystem, tr *tracer, parent span) ([]float64, int, error) {
	x := make([]float64, len(s.b))
	r := append([]float64(nil), s.b...)
	p := append([]float64(nil), s.b...)
	rs := dot(r, r)
	norm0 := math.Sqrt(rs)
	for it := 1; it <= cgMaxIters; it++ {
		sp := tr.begin(parent, "spmv", "apply")
		ap := s.op.Apply(p)
		sp.end()
		alpha := rs / dot(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := dot(r, r)
		if math.Sqrt(rsNew) < cgTol*norm0 {
			return x, it, nil
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return nil, cgMaxIters, fmt.Errorf("cg %s: no convergence in %d iterations", s.name, cgMaxIters)
}

// check verifies x against the true residual and the known solution.
func (s cgSystem) check(x []float64) error {
	ax := csrApply(s.a, x)
	var rr, bb, maxErr float64
	for i := range ax {
		d := s.b[i] - ax[i]
		rr += d * d
		bb += s.b[i] * s.b[i]
		maxErr = math.Max(maxErr, math.Abs(x[i]-s.xTrue[i]))
	}
	if res := math.Sqrt(rr / bb); !(res <= cgResidualBound) {
		return fmt.Errorf("cg %s: relative residual %.3g exceeds %.0e", s.name, res, cgResidualBound)
	}
	if !(maxErr <= cgErrorBound) {
		return fmt.Errorf("cg %s: max |x - x_true| %.3g exceeds %.0e", s.name, maxErr, cgErrorBound)
	}
	return nil
}

// makeSPD symmetrizes m and boosts its diagonal to strict dominance, as
// examples/cg-solver does.
func makeSPD(m *sparse.CSR) *sparse.CSR {
	coo := sparse.NewCOO(m.Rows, m.Cols)
	rowAbs := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := int(m.ColIdx[k])
			v := m.Vals[k] / 2
			if i != j {
				coo.Add(i, j, v)
				coo.Add(j, i, v)
				rowAbs[i] += math.Abs(v)
				rowAbs[j] += math.Abs(v)
			}
		}
	}
	for i := 0; i < m.Rows; i++ {
		coo.Add(i, i, rowAbs[i]+1)
	}
	return coo.ToCSR()
}

// csrApply is a plain serial CSR product, independent of the operator
// under test.
func csrApply(m *sparse.CSR, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var acc float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			acc += m.Vals[k] * x[m.ColIdx[k]]
		}
		y[i] = acc
	}
	return y
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
