package sparse

import (
	"math"
	"testing"

	"repro/internal/lcg"
)

func BenchmarkToDASP(b *testing.B) {
	m, err := Synthesize("spmsrts")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ToDASP(m)
	}
}

func BenchmarkToMBSR(b *testing.B) {
	m, err := Synthesize("spmsrts")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ToMBSR(m)
	}
}

func BenchmarkSynthesizeQCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize("conf5_4-8x8-10"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandedFeatures times the banded third of the Figure 10b corpus
// as the matrix-corpus memo meets it: every iteration streams the features
// of 65,536-row banded patterns at each half-bandwidth the corpus draws
// (1–6) from a fresh generator and fresh sums.
func BenchmarkBandedFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for hb := 1; hb <= 6; hb++ {
			bandedFeatures(1<<16, hb, 0.8, lcg.New(int64(hb)))
		}
	}
}

// BenchmarkCOOToCSRSymmetric times the CG solver's SPD assembly as a first
// call: every iteration stages a fresh COO of bcsstk39 symmetrized with a
// dominant diagonal, as examples/cg-solver's makeSPD does, and converts it.
func BenchmarkCOOToCSRSymmetric(b *testing.B) {
	m, err := Synthesize("bcsstk39")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		coo := NewCOO(m.Rows, m.Cols)
		rowAbs := make([]float64, m.Rows)
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if j, v := int(m.ColIdx[k]), m.Vals[k]/2; i != j {
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
		coo.ToCSR()
	}
}
