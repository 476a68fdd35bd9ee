package graph

import (
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/trace"
)

// Shared-cache metrics: hits are requests served from the process-wide
// cache (including callers that joined an in-flight synthesis); misses ran
// the (expensive) synthesis.
var (
	metCacheHits = metrics.NewCounter("cubie_graph_synthesize_hits_total",
		"Table 3 graph requests served from the shared cache.")
	metCacheMisses = metrics.NewCounter("cubie_graph_synthesize_misses_total",
		"Table 3 graph requests that synthesized a new instance.")
)

// shared caches synthesized Table 3 graphs process-wide, one flight per
// name, so distinct graphs synthesize concurrently.
var shared par.Flights[string, *Graph]

// SynthesizeShared returns the process-wide shared instance of the named
// Table 3 graph, synthesizing it on first use in an input span
// (trace.BuildInput) under pprof labels {workload: "graph", variant: name,
// phase: "synthesize"}. The returned
// Graph must be treated as read-only: BFS and the harness coverage study
// all hold the same pointer (BFS's Relabel copies into a fresh graph, so
// the cached instance stays pristine). Concurrent first callers for one
// name do the work exactly once; a failed synthesis is evicted so a later
// caller can retry. A plan that counted its uses (SharedInput) drops it
// after the last.
func SynthesizeShared(name string) (*Graph, error) {
	g, err, joined := shared.Do(name, func() (g *Graph, err error) {
		metCacheMisses.Inc()
		trace.BuildInput("graph", name, "synthesize", func() { g, err = Synthesize(name) })
		return g, err
	})
	if joined && err == nil {
		metCacheHits.Inc()
	}
	return g, err
}

// SharedInput names the shared Table 3 graph for a plan to count
// its uses. A computation that reads a case input built from the dataset
// counts as a use of the dataset too, whether or not it builds that input.
func SharedInput(name string) par.Input { return shared.Input(name) }
