// Package workload defines the common contract every Cubie kernel
// implements: the four algorithmic variants of Section 5.2, the per-workload
// test cases of Table 2, and the result type that feeds the performance
// (profile), accuracy (output), and utilization (Observation 2) analyses.
package workload

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Variant identifies one of the paper's algorithmic implementation variants
// (Section 5.2).
type Variant string

// The four variants.
const (
	// Baseline is the vendor-library or prior-work vector implementation
	// (cuBLAS, cuFFT, CUB, cuSPARSE, Gunrock, DRStencil class).
	Baseline Variant = "Baseline"
	// TC performs the floating-point work with tensor-core MMA instructions.
	TC Variant = "TC"
	// CC replaces every MMA with semantically-equivalent CUDA-core
	// instructions while keeping data structures and algorithm identical.
	CC Variant = "CC"
	// CCE keeps only the mathematically essential CUDA-core operations,
	// dropping the redundancy the MMA shape imposes. For Quadrant I kernels
	// CC-E is defined to equal CC.
	CCE Variant = "CC-E"
)

// Case is one test case of a workload (Table 2 lists five per workload).
type Case struct {
	// Name is the display label, e.g. "1Kx1Kx1K" or "raefsky3".
	Name string
	// Dims carries the numeric parameters (M, N, K / grid dims / sizes).
	Dims []int
	// Dataset names a Table 3/4 input for the sparse and graph workloads.
	Dataset string
}

// Result is the outcome of running one (case, variant) pair.
type Result struct {
	// Profile is the execution profile consumed by the sim timing model.
	Profile sim.Profile
	// Work is the essential (non-redundant) work of the case, in the units
	// MetricName describes; throughput = Work / simulated time.
	Work float64
	// MetricName is the throughput unit: "GFLOPS", "GTEPS", "Mpart/s", ...
	MetricName string
	// Output is the flattened numerical result used by the accuracy
	// analysis (Table 6). It may be a deterministic sample of a large
	// output; all variants of a workload must sample identically. Nil for
	// profile-only runs of cases too large to execute in full. The harness
	// keeps it in memory for representative cases only and never persists
	// it: Table 6 persists its rows instead.
	Output []float64
	// InputUtil and OutputUtil are the MMA operand utilization fractions
	// behind the Figure 2 quadrant categorization (1 = full). Zero for
	// baseline variants, which do not issue MMAs.
	InputUtil, OutputUtil float64
}

// Workload is one Cubie kernel with all of its variants.
type Workload interface {
	// Name returns the Table 2 kernel name ("GEMM", "SpMV", ...).
	Name() string
	// Quadrant returns the Figure 2 utilization quadrant (1–4).
	Quadrant() int
	// Dwarf returns the Berkeley-dwarf class of Table 7.
	Dwarf() string
	// Cases returns the five Table 2 test cases.
	Cases() []Case
	// Variants returns the variants this workload implements, always
	// including Baseline and TC (except PiC, which has no Baseline).
	Variants() []Variant
	// Representative returns the test case used for the single-case
	// experiments (power, EDP, accuracy).
	Representative() Case
	// Repeats returns the Figure 7 measurement-loop repeat count.
	Repeats() int
	// Run executes the (case, variant) pair: it performs the variant's real
	// arithmetic (or a documented representative subset for very large
	// cases) and returns the profile plus outputs. It is Profile plus the
	// output computation.
	Run(c Case, v Variant) (*Result, error)
	// Profile returns exactly what Run returns except Output, which is nil:
	// the profile, work, metric and utilization fractions, without the
	// output computation. Closed-form kernels execute nothing; the sparse
	// kernels still build their layouts and BFS still traverses, because
	// their profiles are measured on those.
	Profile(c Case, v Variant) (*Result, error)
	// Reference computes the CPU-serial ground truth (Table 6's baseline
	// for error measurement) for the case, aligned with Result.Output.
	Reference(c Case) ([]float64, error)
}

// FindCase resolves a case by name.
func FindCase(w Workload, name string) (Case, error) {
	for _, c := range w.Cases() {
		if c.Name == name {
			return c, nil
		}
	}
	return Case{}, fmt.Errorf("workload %s: unknown case %q", w.Name(), name)
}

// HasVariant reports whether w implements v.
func HasVariant(w Workload, v Variant) bool {
	for _, x := range w.Variants() {
		if x == v {
			return true
		}
	}
	return false
}

// Op is one computation a Workload performs on a case.
type Op int

const (
	OpProfile   Op = iota // Workload.Profile
	OpRun                 // Workload.Run
	OpReference           // Workload.Reference
)

// InputReader is implemented by a workload whose computations read inputs
// built once and shared: a case's layout or dense operand, and the Table
// 3/4 dataset a layout is built from. A plan counts the uses of each input
// its computations will read and releases each after the last
// (par.Flights), so an input lives only as long as the plan needs it.
type InputReader interface {
	// Inputs lists what one computation of case c reads: op of variant v
	// (v is ignored for OpReference).
	Inputs(c Case, v Variant, op Op) []par.Input
}

// Inputs returns what op of (c, v) on w reads: w's InputReader list, or
// none when w builds nothing it shares.
func Inputs(w Workload, c Case, v Variant, op Op) []par.Input {
	if r, ok := w.(InputReader); ok {
		return r.Inputs(c, v, op)
	}
	return nil
}

// Operand is a workload's per-case table of one synthesized dense input,
// built once and shared read-only by every run of the case and by its
// reference. A kernel whose computation writes its operand in place must
// synthesize its own copy instead.
type Operand[V any] struct {
	flights par.Flights[string, V]
}

// Get returns case c's operand, built by the first caller with build in an
// input span under pprof labels {workload: name, variant: c.Name, phase:
// "synthesize"} (trace.BuildInput).
func (o *Operand[V]) Get(name string, c Case, build func() V) V {
	v, _, _ := o.flights.Do(c.Name, func() (v V, _ error) {
		trace.BuildInput(name, c.Name, "synthesize", func() { v = build() })
		return v, nil
	})
	return v
}

// Input names case c's operand, for a plan to count its uses.
func (o *Operand[V]) Input(c Case) par.Input { return o.flights.Input(c.Name) }
