package sparse

import (
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/trace"
)

// Shared-cache metrics: hits are requests served from the process-wide
// cache (including callers that joined an in-flight synthesis); misses ran
// the (expensive) synthesis.
var (
	metCacheHits = metrics.NewCounter("cubie_sparse_synthesize_hits_total",
		"Table 4 matrix requests served from the shared cache.")
	metCacheMisses = metrics.NewCounter("cubie_sparse_synthesize_misses_total",
		"Table 4 matrix requests that synthesized a new instance.")
)

// shared caches synthesized Table 4 matrices process-wide, one flight per
// name, so distinct matrices synthesize concurrently.
var shared par.Flights[string, *CSR]

// SynthesizeShared returns the process-wide shared instance of the named
// Table 4 matrix, synthesizing it on first use in an input span
// (trace.BuildInput) under pprof labels {workload: "sparse", variant: name,
// phase: "synthesize"}. The returned
// CSR must be treated as read-only: SpMV, SpGEMM, and the harness
// coverage/ablation studies all hold the same pointer. Concurrent first
// callers for one name do the work exactly once; a failed synthesis is
// evicted so a later caller can retry. A plan that counted its uses
// (SharedInput) drops it after the last.
func SynthesizeShared(name string) (*CSR, error) {
	m, err, joined := shared.Do(name, func() (m *CSR, err error) {
		metCacheMisses.Inc()
		trace.BuildInput("sparse", name, "synthesize", func() { m, err = Synthesize(name) })
		return m, err
	})
	if joined && err == nil {
		metCacheHits.Inc()
	}
	return m, err
}

// SharedInput names the shared Table 4 matrix for a plan to count
// its uses. A computation that reads a case input built from the dataset
// counts as a use of the dataset too, whether or not it builds that input.
func SharedInput(name string) par.Input { return shared.Input(name) }
