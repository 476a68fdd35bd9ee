package spgemm

import (
	"math"
	"testing"

	"repro/internal/par"
)

// forceMode runs fn under the given accumulator regime and restores the
// previous one.
func forceMode(t *testing.T, m AccumMode, fn func()) {
	t.Helper()
	prev := SetAccumMode(m)
	defer SetAccumMode(prev)
	fn()
}

// TestAccumModesBitIdentical pins the arena's central contract: the dense
// stamped directory, the hash directory, and the adaptive switch produce
// bit-identical numeric-phase outputs — the directory only routes each tile
// to its arena slot, it never touches the addition order.
func TestAccumModesBitIdentical(t *testing.T) {
	w := New()
	d, err := w.data(w.Representative())
	if err != nil {
		t.Fatal(err)
	}
	for _, compute := range []struct {
		name string
		fn   func(*caseData) []float64
	}{{"mma", computeMMA}, {"essential", computeEssential}} {
		var dense, hash, adaptive []float64
		forceMode(t, AccumDense, func() { dense = compute.fn(d) })
		forceMode(t, AccumHash, func() { hash = compute.fn(d) })
		forceMode(t, AccumAdaptive, func() { adaptive = compute.fn(d) })
		if len(dense) != len(hash) || len(dense) != len(adaptive) {
			t.Fatalf("%s: output lengths differ: %d/%d/%d",
				compute.name, len(dense), len(hash), len(adaptive))
		}
		for i := range dense {
			if math.Float64bits(dense[i]) != math.Float64bits(hash[i]) {
				t.Fatalf("%s: dense and hash outputs differ bitwise at %d: %v vs %v",
					compute.name, i, dense[i], hash[i])
			}
			if math.Float64bits(dense[i]) != math.Float64bits(adaptive[i]) {
				t.Fatalf("%s: dense and adaptive outputs differ bitwise at %d: %v vs %v",
					compute.name, i, dense[i], adaptive[i])
			}
		}
	}
}

// TestAccumModesBitIdenticalParallel crosses the regime switch with the
// worker-count axis: forced-dense at 8 workers must equal forced-hash at 1
// worker bitwise.
func TestAccumModesBitIdenticalParallel(t *testing.T) {
	w := New()
	d, err := w.data(w.Representative())
	if err != nil {
		t.Fatal(err)
	}
	var serialHash, parallelDense []float64
	forceMode(t, AccumHash, func() {
		prev := par.SetWorkers(1)
		defer par.SetWorkers(prev)
		serialHash = computeMMA(d)
	})
	forceMode(t, AccumDense, func() {
		prev := par.SetWorkers(8)
		defer par.SetWorkers(prev)
		parallelDense = computeMMA(d)
	})
	for i := range serialHash {
		if math.Float64bits(serialHash[i]) != math.Float64bits(parallelDense[i]) {
			t.Fatalf("outputs differ bitwise at %d: %v vs %v",
				i, serialHash[i], parallelDense[i])
		}
	}
}

// allocsBudget is the steady-state allocation ceiling per numeric-phase
// call: the output vector plus ForTiles bookkeeping, never anything
// per-block-row. A sync.Pool can be drained by a GC between runs, so the
// budget leaves room for a handful of arena re-allocations — the pre-arena
// implementation sat at ~45k per call, three orders of magnitude above it.
const allocsBudget = 64

// TestComputeMMASteadyStateAllocs is the zero-alloc-per-row contract of the
// arena path: once pools are warm, computeMMA allocates only its output.
func TestComputeMMASteadyStateAllocs(t *testing.T) {
	w := New()
	d, err := w.data(w.Representative())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []AccumMode{AccumAdaptive, AccumDense, AccumHash} {
		forceMode(t, mode, func() {
			computeMMA(d) // warm the scratch pools
			if n := testing.AllocsPerRun(5, func() { computeMMA(d) }); n > allocsBudget {
				t.Errorf("mode %d: %v allocs/run, want ≤ %d (zero per block-row)",
					mode, n, allocsBudget)
			}
		})
	}
}

// TestEssentialAndScalarSteadyStateAllocs extends the contract to the CC-E
// sweep and the pooled scalar (Reference / baseline-hash) sweeps.
func TestEssentialAndScalarSteadyStateAllocs(t *testing.T) {
	w := New()
	c := w.Representative()
	d, err := w.data(c)
	if err != nil {
		t.Fatal(err)
	}
	computeEssential(d)
	if n := testing.AllocsPerRun(5, func() { computeEssential(d) }); n > allocsBudget {
		t.Errorf("computeEssential: %v allocs/run, want ≤ %d", n, allocsBudget)
	}
	computeBaseline(d)
	if n := testing.AllocsPerRun(5, func() { computeBaseline(d) }); n > allocsBudget {
		t.Errorf("computeBaseline: %v allocs/run, want ≤ %d", n, allocsBudget)
	}
	if _, err := w.Reference(c); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() { w.Reference(c) }); n > allocsBudget {
		t.Errorf("Reference: %v allocs/run, want ≤ %d", n, allocsBudget)
	}
}

// TestBlockAccumRegimes unit-tests the arena directory in both regimes:
// claim-on-first-touch, slot stability within a row, epoch invalidation
// across rows, and zeroed tiles on claim.
func TestBlockAccumRegimes(t *testing.T) {
	for _, dense := range []bool{true, false} {
		var a blockAccum
		mode := AccumHash
		if dense {
			mode = AccumDense
		}
		const blockCols = 64
		// Row 1: touch columns out of order, write marks.
		a.beginRow(8, blockCols, mode)
		if a.dense != dense {
			t.Fatalf("dense=%v: regime not forced", dense)
		}
		for _, j := range []int32{7, 3, 7, 63, 0, 3} {
			tl := a.tile(j)
			tl[0]++
		}
		if got := len(a.cols); got != 4 {
			t.Fatalf("dense=%v: %d distinct tiles, want 4", dense, got)
		}
		// Revisits accumulate in place.
		if tl := a.tile(7); tl[0] != 2 {
			t.Fatalf("dense=%v: tile 7 count %v, want 2", dense, tl[0])
		}
		// Row 2: every previous entry is invalid; tiles come back zeroed.
		a.beginRow(8, blockCols, mode)
		if len(a.cols) != 0 {
			t.Fatalf("dense=%v: cols not reset", dense)
		}
		for _, j := range []int32{7, 3} {
			if tl := a.tile(j); tl[0] != 0 {
				t.Fatalf("dense=%v: stale tile %d content %v", dense, j, tl[0])
			}
		}
	}
}

// TestBlockAccumAdaptiveSwitch checks the fill-ratio decision: sparse rows
// hash, high-fill rows go dense.
func TestBlockAccumAdaptiveSwitch(t *testing.T) {
	var a blockAccum
	a.beginRow(4, 1024, AccumAdaptive) // fill 4/1024 < 1/8
	if a.dense {
		t.Error("sparse row chose the dense directory")
	}
	a.beginRow(512, 1024, AccumAdaptive) // fill 1/2 ≥ 1/8
	if !a.dense {
		t.Error("high-fill row chose the hash directory")
	}
}

// TestBlockAccumEpochWrap forces the epoch counter to its wrap point and
// checks stale entries cannot leak through a reissued epoch.
func TestBlockAccumEpochWrap(t *testing.T) {
	var a blockAccum
	a.epoch = 1<<31 - 2
	a.beginRow(4, 16, AccumDense)
	a.tile(5)[0] = 99
	a.beginRow(4, 16, AccumDense) // triggers the wrap reset
	if a.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", a.epoch)
	}
	if tl := a.tile(5); tl[0] != 0 {
		t.Fatalf("stale tile survived the epoch wrap: %v", tl[0])
	}
}

// TestSetAccumMode checks the knob round-trips and reports the previous
// mode.
func TestSetAccumMode(t *testing.T) {
	orig := CurrentAccumMode()
	defer SetAccumMode(orig)
	if prev := SetAccumMode(AccumDense); prev != orig {
		t.Fatalf("SetAccumMode returned %d, want %d", prev, orig)
	}
	if CurrentAccumMode() != AccumDense {
		t.Fatal("mode not applied")
	}
	if prev := SetAccumMode(AccumHash); prev != AccumDense {
		t.Fatalf("SetAccumMode returned %d, want AccumDense", prev)
	}
}

// TestSortInt32 pins both the insertion-sort and pdqsort paths.
func TestSortInt32(t *testing.T) {
	small := []int32{5, 1, 4, 2, 3}
	sortInt32(small)
	for i := range small {
		if small[i] != int32(i+1) {
			t.Fatalf("small sort: %v", small)
		}
	}
	big := make([]int32, 100)
	for i := range big {
		big[i] = int32(99 - i)
	}
	sortInt32(big)
	for i := range big {
		if big[i] != int32(i) {
			t.Fatalf("big sort broken at %d: %v", i, big[i])
		}
	}
}
