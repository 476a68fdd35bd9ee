package mmu

// MMA-layer instrumentation. These are the hottest counters in the suite —
// one increment per executed MMA tile — so they use sharded counters whose
// shard is picked from the output tile's address: concurrent internal/par
// workers process disjoint tiles and therefore land on (mostly) disjoint
// cache lines, keeping the per-tile cost to a single uncontended atomic
// add. FLOP totals are derivable (tiles × FLOPsPerDMMA, ops × OpsPerBMMA),
// so only call counts are kept.

import (
	"unsafe"

	"repro/internal/metrics"
)

var (
	metDMMATiles = metrics.NewShardedCounter("cubie_mmu_dmma_tiles_total",
		"FP64 m8n8k4 MMA tile executions (TC and CC variants both route here; ×512 for FLOPs).")
	metDMMAWarps = metrics.NewShardedCounter("cubie_mmu_dmma_warps_total",
		"FP64 m8n8k4 MMAs executed on explicit warp-register fragments.")
	metBMMAOps = metrics.NewShardedCounter("cubie_mmu_bmma_ops_total",
		"Single-bit m8n8k128 AND+POPC MMA executions (×2048 for bit ops).")
	metDMMAPanels = metrics.NewShardedCounter("cubie_mmu_dmma_panels_total",
		"Fused panel k-sweeps executed (DMMAPanel/DMMAPanelDiag/DMMAPanelPair/DMMABatch sweeps).")
	metFragmentOps = metrics.NewShardedCounter("cubie_mmu_fragment_ops_total",
		"Warp fragment load/store operations (FragA/FragB/FragC traffic).")
)

// addFragmentOps records n fragment load/store operations in one batched
// metrics update on the shard hint h selects. The panel kernels pass their
// output's address, as for the tile counters, to account a whole k-sweep's
// operand staging (2 fragments per k-tile plus the resident accumulator's
// load and store); the Frag Load/Store methods pass 0.
func addFragmentOps(h uintptr, n int) {
	if n > 0 {
		metFragmentOps.AddAt(h, uint64(n))
	}
}

// hintOf derives a shard hint from a pointer without retaining it.
func hintOf(p unsafe.Pointer) uintptr { return uintptr(p) }
