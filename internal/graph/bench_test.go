package graph

import "testing"

func BenchmarkToSliceSet(b *testing.B) {
	g, err := Synthesize("kron_g500-logn21")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(g.Edges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ToSliceSet(g)
	}
}

func BenchmarkMycielskian12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Mycielskian(12)
	}
}

// BenchmarkRMATKron times the Table 3 Kronecker graph as its first request
// pays for it: every iteration synthesizes kron_g500-logn21 afresh (the
// RMAT draws and the symmetrized build), not through the shared cache.
func BenchmarkRMATKron(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Synthesize("kron_g500-logn21"); err != nil {
			b.Fatal(err)
		}
	}
}
