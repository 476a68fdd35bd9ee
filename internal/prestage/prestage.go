// Package prestage counts the prestaged sparse operand slabs: the prepacked
// DASP A panels and flat B-gather indices that are the DASP layout, one
// slab per layout, counted by sparse.ToDASP when it builds them. The SpMV
// hot loop only gathers the B side from x through them.
package prestage

import "repro/internal/metrics"

// DisableEnv is retired: cubie ignores it; only bench/'s start guard names
// it.
const DisableEnv = "CUBIE_NO_PRESTAGE"

// Slab metrics (documented in docs/OBSERVABILITY.md): ToDASP counts every
// slab it builds.
var (
	metSlabs = metrics.NewCounter("cubie_prestage_slabs_total",
		"Prestaged sparse operand slabs built (DASP A-panel/B-index slabs).")
	metBytes = metrics.NewCounter("cubie_prestage_bytes_total",
		"Total bytes of prestaged sparse operand slabs built.")
)

// CountSlab records one built slab of the given byte size.
func CountSlab(bytes int) {
	metSlabs.Inc()
	metBytes.Add(uint64(bytes))
}
