package spmv

import (
	"testing"

	"repro/internal/lcg"
	"repro/internal/sparse"
)

// BenchmarkOperator times one steady-state Operator.Apply per Table 4
// matrix, the five systems the cg-solve benchmark iterates on (there made
// SPD, with the same DASP layout shape). Its bytes are the A values (8 B)
// and gather indices (4 B) an apply streams: one of each per padded slot of
// the layout, not per nonzero, since the padded slots are executed too.
func BenchmarkOperator(b *testing.B) {
	for _, d := range sparse.Table4() {
		b.Run(d.Name, func(b *testing.B) {
			m, err := sparse.Synthesize(d.Name)
			if err != nil {
				b.Fatal(err)
			}
			op := NewOperator(m)
			x := make([]float64, m.Cols)
			lcg.New(1).Fill(x)
			op.Apply(x) // steady state: keep the first apply out of the timing
			b.SetBytes(int64(op.dasp.PaddedSlots * 12))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Apply(x)
			}
		})
	}
}

func TestOperatorMatchesWorkload(t *testing.T) {
	w := New()
	c := w.Representative()
	res, err := w.Run(c, "TC")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := sparse.Synthesize(c.Dataset)
	op := NewOperator(m)
	x := make([]float64, m.Cols)
	lcg.New(int64(m.Cols)).Fill(x) // the workload's input convention
	y := op.Apply(x)
	for i := range y {
		if y[i] != res.Output[i] {
			t.Fatalf("operator deviates from workload at %d", i)
		}
	}
}

func TestOperatorPanicsOnDimensionMismatch(t *testing.T) {
	m, _ := sparse.Synthesize("spmsrts")
	op := NewOperator(m)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong input length")
		}
	}()
	op.Apply(make([]float64, 3))
}
