package par

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers runs f under a temporary worker count.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestWorkersDefaultAndClamp(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
	prev := SetWorkers(0) // clamped
	defer SetWorkers(prev)
	if Workers() != 1 {
		t.Fatalf("SetWorkers(0) left Workers() = %d, want 1", Workers())
	}
	SetWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d, want 7", Workers())
	}
}

// TestForTilesCoverage checks every index is visited exactly once, over
// even, uneven, tiny, and degenerate grids and several worker counts.
func TestForTilesCoverage(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 61} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 1023} {
			t.Run(fmt.Sprintf("w%d_n%d", w, n), func(t *testing.T) {
				withWorkers(t, w, func() {
					counts := make([]int32, n)
					ForTiles(n, func(lo, hi int) {
						if lo < 0 || hi > n || lo > hi {
							t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
						}
						for i := lo; i < hi; i++ {
							atomic.AddInt32(&counts[i], 1)
						}
					})
					for i, c := range counts {
						if c != 1 {
							t.Fatalf("index %d visited %d times", i, c)
						}
					}
				})
			})
		}
	}
}

// TestForTilesBitIdentical pins the core determinism contract: a tiled
// computation produces the same bits at Workers(1) and Workers(N).
func TestForTilesBitIdentical(t *testing.T) {
	const n = 513
	compute := func() []float64 {
		out := make([]float64, n)
		ForTiles(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				acc := 0.0
				for k := 0; k < 17; k++ {
					acc += float64(i+1) / float64(k+3)
				}
				out[i] = acc
			}
		})
		return out
	}
	var serial, parallel []float64
	withWorkers(t, 1, func() { serial = compute() })
	withWorkers(t, 13, func() { parallel = compute() })
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("out[%d]: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestForTilesPanicPropagation panics in the caller's own range 0 and in
// the last range, which runs on a goroutine of its own: both come back to
// the caller as *WorkerPanic, while the serial path re-raises the value.
func TestForTilesPanicPropagation(t *testing.T) {
	for _, tc := range []struct{ workers, at int }{{1, 3}, {4, 3}, {4, 15}} {
		sentinel := fmt.Errorf("tile %d exploded", tc.at)
		withWorkers(t, tc.workers, func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%+v: panic did not propagate", tc)
				}
				if tc.workers == 1 {
					// Inline path re-raises the original value untouched.
					if r != sentinel {
						t.Fatalf("%+v: got %v", tc, r)
					}
					return
				}
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("%+v: got %T (%v), want *WorkerPanic", tc, r, r)
				}
				if !errors.Is(wp, sentinel) {
					t.Fatalf("%+v: WorkerPanic unwraps to %v, want sentinel", tc, wp.Unwrap())
				}
				if len(wp.Stack) == 0 {
					t.Fatalf("%+v: WorkerPanic carries no stack", tc)
				}
			}()
			ForTiles(16, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == tc.at {
						panic(sentinel)
					}
				}
			})
		})
	}
}

// TestForTilesNested exercises ForTiles called from inside ForTiles ranges,
// including ranges on goroutines ForTiles started: every inner grid must
// finish and cover the full 2D grid exactly once.
func TestForTilesNested(t *testing.T) {
	withWorkers(t, 4, func() {
		const rows, cols = 37, 29
		var counts [rows * cols]int32
		ForTiles(rows, func(rlo, rhi int) {
			for r := rlo; r < rhi; r++ {
				r := r
				ForTiles(cols, func(clo, chi int) {
					for c := clo; c < chi; c++ {
						atomic.AddInt32(&counts[r*cols+c], 1)
					}
				})
			}
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("cell %d visited %d times", i, c)
			}
		}
	})
}

// TestForTilesConcurrent runs many ForTiles calls from independent
// goroutines at once.
func TestForTilesConcurrent(t *testing.T) {
	withWorkers(t, 3, func() {
		var wg sync.WaitGroup
		var total atomic.Int64
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ForTiles(100, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}()
		}
		wg.Wait()
		if total.Load() != 1600 {
			t.Fatalf("covered %d indices, want 1600", total.Load())
		}
	})
}

// TestReduceTilesDeterministic pins that chunked reduction is bit-identical
// across worker counts, including a floating-point sum whose plain serial
// order would differ.
func TestReduceTilesDeterministic(t *testing.T) {
	sum := func() float64 {
		return ReduceTiles(1000, 64, func(lo, hi int, acc *float64) {
			for i := lo; i < hi; i++ {
				*acc += 1.0 / float64(i+1)
			}
		}, func(dst, src *float64) { *dst += *src })
	}
	var s1, sN float64
	withWorkers(t, 1, func() { s1 = sum() })
	withWorkers(t, 9, func() { sN = sum() })
	if s1 != sN {
		t.Fatalf("ReduceTiles: serial %v != parallel %v", s1, sN)
	}
	if s1 == 0 {
		t.Fatal("ReduceTiles returned zero")
	}
}

func TestReduceTilesCounts(t *testing.T) {
	type stats struct{ n, sum int }
	got := ReduceTiles(101, 7, func(lo, hi int, acc *stats) {
		for i := lo; i < hi; i++ {
			acc.n++
			acc.sum += i
		}
	}, func(dst, src *stats) { dst.n += src.n; dst.sum += src.sum })
	if got.n != 101 || got.sum != 101*100/2 {
		t.Fatalf("got %+v, want n=101 sum=5050", got)
	}
}

func TestScratch(t *testing.T) {
	s := NewScratch(64)
	if s.Len() != 64 {
		t.Fatalf("Len() = %d", s.Len())
	}
	b := s.Get()
	if len(b) != 64 {
		t.Fatalf("Get() len = %d", len(b))
	}
	for i := range b {
		b[i] = 42
	}
	s.Put(b)
	z := s.GetZeroed()
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed()[%d] = %v", i, v)
		}
	}
	s.Put(z)
	s.Put(make([]float64, 3)) // wrong size: must be dropped, not poison
	if got := s.Get(); len(got) != 64 {
		t.Fatalf("pool poisoned: Get() len = %d", len(got))
	}
}

func TestSizedScratch(t *testing.T) {
	s := NewSizedScratch()
	b := s.Get(100)
	if len(b) != 100 {
		t.Fatalf("Get(100) len = %d", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("Get(100) cap = %d, want power-of-two 128", cap(b))
	}
	s.Put(b)
	// A smaller request must reuse the pooled capacity.
	c := s.Get(70)
	if len(c) != 70 || cap(c) != 128 {
		t.Fatalf("Get(70) after Put: len=%d cap=%d, want reuse of cap 128", len(c), cap(c))
	}
	s.Put(c)
	// A larger request allocates fresh rather than returning a short buffer.
	d := s.Get(300)
	if len(d) != 300 || cap(d) < 300 {
		t.Fatalf("Get(300) len=%d cap=%d", len(d), cap(d))
	}
	s.Put(d)
	// Tiny requests round capacity up to the 64-element floor.
	e := s.Get(1)
	if len(e) != 1 || cap(e) < 64 {
		t.Fatalf("Get(1) len=%d cap=%d", len(e), cap(e))
	}
	s.Put(nil) // must not poison the pool
	if f := s.Get(10); len(f) != 10 {
		t.Fatalf("Get(10) after Put(nil) len = %d", len(f))
	}
}

func TestTypedScratch(t *testing.T) {
	// The reuse assertions below require the Put buffer to survive until
	// the next Get; a GC in that window may legitimately drain the
	// sync.Pool, so hold GC off for the test's duration.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := NewTypedScratch[int32]()
	b := s.Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100) len=%d cap=%d, want len 100 cap 128", len(b), cap(b))
	}
	for i := range b {
		b[i] = int32(i)
	}
	s.Put(b)
	// A smaller request must reuse the pooled capacity. sync.Pool
	// deliberately drops a fraction of Puts when the race detector is
	// enabled, so reuse cannot be asserted from a single Put/Get pair —
	// refill and retry until the pooled buffer comes back.
	c := s.Get(32)
	for i := 0; cap(c) != 128; i++ {
		if i == 64 {
			t.Fatalf("Get(32) after Put: len=%d cap=%d, want reuse of cap 128", len(c), cap(c))
		}
		s.Put(s.Get(100)) // repool a 128-cap buffer
		c = s.Get(32)
	}
	if len(c) != 32 {
		t.Fatalf("Get(32) len = %d", len(c))
	}
	s.Put(c)
	// A larger request allocates fresh rather than returning a short buffer.
	d := s.Get(1000)
	if len(d) != 1000 || cap(d) != 1024 {
		t.Fatalf("Get(1000) len=%d cap=%d", len(d), cap(d))
	}
	s.Put(nil) // must not poison the pool
	if e := s.Get(10); len(e) != 10 {
		t.Fatalf("Get(10) after Put(nil) len = %d", len(e))
	}
	// Struct element types pool too.
	type pair struct{ a, b int }
	ps := NewTypedScratch[pair]()
	p := ps.Get(10)
	p[3] = pair{1, 2}
	ps.Put(p)
	if q := ps.Get(5); len(q) != 5 || cap(q) < 64 {
		t.Fatalf("pair Get(5) len=%d cap=%d", len(q), cap(q))
	}
}

func BenchmarkForTilesOverhead(b *testing.B) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForTiles(64, func(lo, hi int) {})
	}
}
