package runcache

import (
	"math"
	"os"
	"testing"

	"repro/internal/workload"
)

// benchOutputLen is the output length of the codec benchmarks: 1.4 M
// floats, the size class of the representative-case outputs Table 6 keeps.
const benchOutputLen = 1_400_000

func benchResult() *workload.Result {
	out := make([]float64, benchOutputLen)
	for i := range out {
		out[i] = math.Sin(float64(i)) * 1e3
	}
	return &workload.Result{Work: 2.8e6, MetricName: "flops", Output: out, InputUtil: 0.5, OutputUtil: 1}
}

// entrySize returns the on-disk size of the one entry in c.
func entrySize(b *testing.B, c *Cache) int64 {
	b.Helper()
	st, err := os.Stat(c.path(KindResult, ResultKey("GEMM", "rep", "TC")))
	if err != nil {
		b.Fatal(err)
	}
	return st.Size()
}

// BenchmarkGetResult reads one representative-size result entry from disk
// per iteration, as a warm campaign does.
func BenchmarkGetResult(b *testing.B) {
	c, err := OpenWithFingerprint(b.TempDir(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	c.PutResult("GEMM", "rep", "TC", benchResult())
	b.SetBytes(entrySize(b, c))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.GetResult("GEMM", "rep", "TC"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkPutResult writes one representative-size result entry to disk
// per iteration (tmp file, fsync, rename), as a cold campaign does.
func BenchmarkPutResult(b *testing.B) {
	c, err := OpenWithFingerprint(b.TempDir(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	res := benchResult()
	c.PutResult("GEMM", "rep", "TC", res)
	b.SetBytes(entrySize(b, c))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PutResult("GEMM", "rep", "TC", res)
	}
}
