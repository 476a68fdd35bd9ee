package fft

import (
	"testing"

	"repro/internal/lcg"
)

func BenchmarkTransform256MMA(b *testing.B) {
	p := newPlanMMA(256)
	re := make([]float64, 256)
	im := make([]float64, 256)
	lcg.New(1).Fill(re)
	lcg.New(2).Fill(im)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := append([]float64(nil), re...)
		m := append([]float64(nil), im...)
		p.transform(r, m)
	}
}

func BenchmarkRadix2_256(b *testing.B) {
	re := make([]float64, 256)
	im := make([]float64, 256)
	lcg.New(1).Fill(re)
	lcg.New(2).Fill(im)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := append([]float64(nil), re...)
		m := append([]float64(nil), im...)
		radix2(r, m)
	}
}

// BenchmarkFFTReference times the CPU-serial reference of the
// representative case as a campaign calls it: every iteration draws the
// inputs and builds its twiddle tables afresh, then runs the direct 2D DFT
// of both sampled images.
func BenchmarkFFTReference(b *testing.B) {
	w := New()
	c := w.Representative()
	for i := 0; i < b.N; i++ {
		if _, err := w.Reference(c); err != nil {
			b.Fatal(err)
		}
	}
}
