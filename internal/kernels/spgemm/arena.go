// Accumulator arena for the SpGEMM numeric phase.
//
// The numeric sweeps previously materialized a fresh Go map of heap-allocated
// 4×4 tiles per block-row (the hash-accumulator pattern the paper's Quadrant
// IV characterization measures 3× IntOps overhead for) — which made SpGEMM
// the allocation outlier of the whole suite: every map insert, bucket growth,
// and tile was a heap object, ~45k allocations per representative run. This
// file replaces that with a per-worker arena checked out of a sync.Pool once
// per tile range and reused across every block-row the range owns:
//
//   - tile values live in one flat slice (slot s at vals[16s:16s+16]),
//     grow-once sized per row from the row's product-count upper bound;
//   - the block-column → slot directory comes in two regimes, switched per
//     block-row by fill ratio: a dense stamped directory (stamp/slot arrays
//     indexed by block column; O(1), BlockCols footprint) for high-fill
//     rows, and an epoch-validated open-addressing hash table (compact,
//     L1-resident for band matrices) for sparse ones;
//   - validity is an epoch stamp, never a clear: bumping the row epoch
//     invalidates every directory entry at once, so neither regime pays a
//     per-row wipe, and a pooled arena is safe to hand to any matrix.
//
// Both regimes feed each tile the identical queue-order addition sequence
// and flush in ascending block-column order, so outputs are bit-identical
// across regimes, worker counts, and the pre-arena implementation
// (determinism_test.go and the spgemm tests pin all three).
package spgemm

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/mmu"
	"repro/internal/sparse"
)

// DenseEnv is retired: cubie ignores it; only bench/'s start guard names it.
const DenseEnv = "CUBIE_SPGEMM_DENSE"

// AccumMode selects the numeric-phase accumulator regime.
type AccumMode int32

const (
	// AccumAdaptive switches per block-row on fill ratio (the default).
	AccumAdaptive AccumMode = iota
	// AccumDense uses the dense stamped directory for every block-row.
	AccumDense
	// AccumHash uses the open-addressing hash table for every block-row.
	AccumHash
)

var accumMode atomic.Int32

// SetAccumMode sets the accumulator regime and returns the previous one.
// Production always runs AccumAdaptive; it is a test seam that pins the
// dense and hash paths bit-identical.
func SetAccumMode(m AccumMode) (prev AccumMode) {
	return AccumMode(accumMode.Swap(int32(m)))
}

// CurrentAccumMode reports the active accumulator regime.
func CurrentAccumMode() AccumMode { return AccumMode(accumMode.Load()) }

// denseFillShift: adaptive rows go dense when the distinct-column upper
// bound is at least BlockCols>>denseFillShift (fill ratio ≥ 1/8). Below
// that the BlockCols-wide directory walk is mostly cache misses and the
// compact hash table wins; above it the O(1) direct index does.
const denseFillShift = 3

// Arena metrics (documented in docs/OBSERVABILITY.md). Counters are batched
// per tile range — the hot loops accumulate plain ints and flush once.
var (
	metArenaGets = metrics.NewCounter("cubie_spgemm_arena_gets_total",
		"Numeric-phase arenas checked out of the arena pool (one per tile range).")
	metArenaMisses = metrics.NewCounter("cubie_spgemm_arena_misses_total",
		"Arena checkouts that allocated a fresh arena (pool empty).")
	metArenaGrows = metrics.NewCounter("cubie_spgemm_arena_grows_total",
		"Capacity growths inside checked-out arenas (tile slots, directories, hash table, product queue).")
	metDenseRows = metrics.NewCounter("cubie_spgemm_dense_rows_total",
		"Block-rows accumulated through the dense stamped directory.")
	metHashRows = metrics.NewCounter("cubie_spgemm_hash_rows_total",
		"Block-rows accumulated through the open-addressing hash directory.")
)

// hashEntry is one open-addressing slot: valid iff epoch matches the
// arena's current row epoch, so stale entries (prior rows, prior matrices,
// prior table sizes) need no clearing.
type hashEntry struct {
	epoch int32
	col   int32
	slot  int32
}

// blockAccum accumulates the 4×4 C tiles of one block-row.
type blockAccum struct {
	vals  []float64   // tile arena: slot s occupies vals[16s : 16s+16]
	cols  []int32     // block column of slot s, insertion order
	stamp []int32     // dense directory: stamp[j] == epoch ⇒ slot[j] valid
	slot  []int32     // dense directory payload
	htab  []hashEntry // hash directory, power-of-two length
	epoch int32
	dense bool // regime of the current row
	grows int  // capacity growths since checkout (flushed to metArenaGrows)
}

// beginRow prepares the accumulator for one block-row: bumps the epoch
// (invalidating every directory entry at once), picks the regime from the
// row's distinct-column upper bound ub, and grow-once sizes the tile arena
// and directory so no mid-row reallocation can occur.
func (a *blockAccum) beginRow(ub, blockCols int, mode AccumMode) {
	if a.epoch == 1<<31-1 {
		// Epoch wrap (once per 2^31 rows): wipe the stamps so no stale
		// entry can collide with a reissued epoch, then restart at 0.
		clear(a.stamp)
		for i := range a.htab {
			a.htab[i] = hashEntry{}
		}
		a.epoch = 0
	}
	a.epoch++
	a.cols = a.cols[:0]
	if ub > blockCols {
		ub = blockCols
	}
	if need := ub * sparse.BlockSize * sparse.BlockSize; cap(a.vals) < need {
		a.vals = make([]float64, 0, ceilPow2(need))
		a.grows++
	}
	a.vals = a.vals[:0]
	if cap(a.cols) < ub {
		a.cols = make([]int32, 0, ceilPow2(ub))
		a.grows++
	}
	a.dense = mode == AccumDense ||
		(mode == AccumAdaptive && ub >= blockCols>>denseFillShift)
	if a.dense {
		if len(a.stamp) < blockCols {
			// Fresh arrays are zero-valued; epoch is ≥ 1, so every entry
			// is born invalid.
			a.stamp = make([]int32, blockCols)
			a.slot = make([]int32, blockCols)
			a.grows++
		}
		return
	}
	// ≤ 50% load factor: capacity ≥ 2× the distinct-column upper bound.
	if need := ceilPow2(2 * ub); len(a.htab) < need {
		if need < 16 {
			need = 16
		}
		a.htab = make([]hashEntry, need)
		a.grows++
	}
}

// tile returns the accumulator tile for block column j, claiming (and
// zeroing) a fresh arena slot on first touch. The claim order — and thus
// the slot order in cols — is the queue traversal order, identical in both
// regimes.
func (a *blockAccum) tile(j int32) *[sparse.BlockSize * sparse.BlockSize]float64 {
	var s int32
	if a.dense {
		if a.stamp[j] == a.epoch {
			s = a.slot[j]
		} else {
			s = a.claim(j)
			a.stamp[j] = a.epoch
			a.slot[j] = s
		}
	} else {
		mask := uint32(len(a.htab) - 1)
		// Fibonacci multiplicative hash, linear probing.
		h := (uint32(j) * 0x9E3779B1) & mask
		for {
			e := &a.htab[h]
			if e.epoch == a.epoch && e.col == j {
				s = e.slot
				break
			}
			if e.epoch != a.epoch {
				s = a.claim(j)
				*e = hashEntry{epoch: a.epoch, col: j, slot: s}
				break
			}
			h = (h + 1) & mask
		}
	}
	return (*[16]float64)(a.vals[s*16 : s*16+16])
}

// claim appends a zeroed tile slot for block column j. beginRow sized the
// arena from the row's upper bound, so the appends never reallocate.
func (a *blockAccum) claim(j int32) int32 {
	s := int32(len(a.cols))
	a.cols = append(a.cols, j)
	a.vals = a.vals[:len(a.vals)+16]
	clear(a.vals[s*16 : s*16+16])
	return s
}

// flush adds the accumulated block-row bi into the per-row canonical sums
// (ascending block column, ascending column within the block) — the same
// order the pre-arena map implementation flushed in.
func (a *blockAccum) flush(d *caseData, bi int, out []float64) {
	sortInt32(a.cols)
	for _, j := range a.cols {
		t := a.tile(j) // directory hit: slot was claimed this row
		for r := 0; r < sparse.BlockSize; r++ {
			row := bi*sparse.BlockSize + r
			if row >= d.mat.Rows {
				break
			}
			var sum float64
			for cc := 0; cc < sparse.BlockSize; cc++ {
				sum += t[r*sparse.BlockSize+cc]
			}
			out[row] += sum
		}
	}
}

// numericScratch is the per-worker state of the numeric sweeps: the
// accumulator arena, the pending-product queue, and the batched MMA staging
// panels, checked out once per tile range.
type numericScratch struct {
	acc   blockAccum
	queue []pendingProduct
	// Staging for one DMMABatch call: pairBatch consecutive A, B, C tiles.
	panels struct {
		a [pairBatch * mmu.M * mmu.K]float64
		b [pairBatch * mmu.K * mmu.N]float64
		c [pairBatch * mmu.M * mmu.N]float64
	}
}

var numericPool sync.Pool

func getNumericScratch() *numericScratch {
	metArenaGets.Inc()
	if v := numericPool.Get(); v != nil {
		return v.(*numericScratch)
	}
	metArenaMisses.Inc()
	return &numericScratch{}
}

func putNumericScratch(ns *numericScratch) {
	if ns.acc.grows > 0 {
		metArenaGrows.Add(uint64(ns.acc.grows))
		ns.acc.grows = 0
	}
	numericPool.Put(ns)
}

// growQueue grow-once sizes the product queue for a row of n products.
func (ns *numericScratch) growQueue(n int) {
	if cap(ns.queue) < n {
		ns.queue = make([]pendingProduct, 0, ceilPow2(n))
		ns.acc.grows++
	}
	ns.queue = ns.queue[:0]
}

// sortInt32 sorts ascending: insertion sort for the short lists band
// matrices produce, pdqsort for the wide rows of the dense regime. The
// algorithm choice cannot affect results — the lists are duplicate-free, so
// every path yields the same permutation.
func sortInt32(a []int32) {
	if len(a) > 48 {
		slices.Sort(a)
		return
	}
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func ceilPow2(n int) int {
	c := 1
	for c < n {
		c *= 2
	}
	return c
}
