// Package par is the deterministic parallel tile-grid execution engine of
// the Cubie suite. Every kernel variant really executes its FP64 arithmetic
// through the pure-Go MMA layer (internal/mmu), and the paper's central
// property — MMA semantics are per-tile deterministic and tile-independent
// (Sun et al.; Khattak & Mikaitis) — is exactly what makes output tiles safe
// to compute concurrently: each output element's FMA accumulation chain is
// confined to one tile, so executing tiles on N goroutines produces the same
// bits as executing them on one.
//
// The engine provides:
//
//   - ForTiles: statically partitions an index space of independent output
//     tiles into contiguous ranges, runs the first on the caller and each
//     other range on a goroutine of its own, and joins them. Because a tile
//     never straddles a range boundary, results are bit-identical for every
//     worker count (the Table 6 TC ≡ CC invariant survives parallel
//     execution).
//   - ReduceTiles (reduce.go): chunked fan-out with per-worker partial
//     accumulators merged at join in fixed chunk order. Chunk boundaries
//     depend only on the grid, never on the worker count, so even
//     floating-point reductions are reproducible across worker counts.
//   - Scratch (scratch.go): sync.Pool-backed fixed-size scratch buffers for
//     the fragment/tile temporaries kernels stage MMA operands in.
//
// The worker count defaults to GOMAXPROCS and can be overridden with the
// CUBIE_WORKERS environment variable or SetWorkers. Workers(1) disables
// parallelism entirely (every grid runs inline on the caller), which the
// suite-wide determinism test uses as the serial reference.
//
// # Observability
//
// The engine self-reports through internal/metrics (see
// docs/OBSERVABILITY.md for the full metric catalog): ranges started on
// goroutines of their own and the seconds they ran, grids run serially on
// the caller, and scratch-pool traffic. The instrumentation is batched per
// ForTiles call — a handful of atomic adds per grid, never per tile — so it
// stays well under the suite's <2% overhead budget. None of it perturbs
// scheduling or determinism.
//
// DoLabeled runs a kernel under runtime/pprof labels (workload, variant,
// phase). The goroutines ForTiles starts inherit the caller's labels, so CPU
// profiles (`cubie run --pprof`) attribute every range to the kernel that
// fanned it out, exactly, even under concurrent kernels. SetRangeHook lets
// internal/trace record one real wall-clock span per executed range when
// host tracing is enabled.
package par

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// EnvWorkers is the environment variable that overrides the default worker
// count at process start.
const EnvWorkers = "CUBIE_WORKERS"

// Engine metrics (registered on the metrics.Default registry; all names are
// documented in docs/OBSERVABILITY.md).
var (
	metTasks = metrics.NewCounter("cubie_par_tasks_total",
		"Tile ranges started on a goroutine of their own (every range of a parallel grid but the caller's).")
	metInlined = metrics.NewCounter("cubie_par_tasks_inlined_total",
		"ForTiles grids executed serially on the caller (one worker, or a one-index grid).")
	metBusy = metrics.NewFloatCounter("cubie_par_worker_busy_seconds_total",
		"Cumulative wall-clock seconds the ranges counted by cubie_par_tasks_total ran.")
	metWorkers = metrics.NewGauge("cubie_par_workers",
		"Current partitioning worker count (SetWorkers / CUBIE_WORKERS).")
)

var workerCount atomic.Int64

func init() {
	n := defaultWorkers()
	workerCount.Store(int64(n))
	metWorkers.Set(float64(n))
}

// defaultWorkers resolves the initial worker count: CUBIE_WORKERS when set
// and valid, GOMAXPROCS otherwise.
func defaultWorkers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the current worker count used to partition tile grids.
func Workers() int { return int(workerCount.Load()) }

// SetWorkers sets the worker count and returns the previous value. n < 1 is
// clamped to 1. The setting only affects how grids are partitioned — results
// are bit-identical for every value (see the package comment).
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	metWorkers.Set(float64(n))
	return int(workerCount.Swap(int64(n)))
}

// WorkerPanic wraps a panic recovered from a tile range so it can be
// re-raised on the goroutine that called ForTiles with the panicking
// range's stack attached.
type WorkerPanic struct {
	Value any    // the original panic value
	Stack []byte // stack of the goroutine that panicked
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it is an error.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// rangeHook, when set, is invoked at the start of every executed tile range
// and the returned closer at its end. internal/trace installs it to record
// host-side spans; nil (the default) costs one atomic load per range.
var rangeHook atomic.Pointer[func(lo, hi int) func()]

// SetRangeHook installs h as the per-range observer (nil clears it). The
// hook runs on the goroutine executing the range, around the user fn; it
// must be safe for concurrent use and should be cheap — it fires once per
// contiguous range, not once per tile.
func SetRangeHook(h func(lo, hi int) func()) {
	if h == nil {
		rangeHook.Store(nil)
		return
	}
	rangeHook.Store(&h)
}

// DoLabeled runs fn under the runtime/pprof labels {workload, variant,
// phase}. Goroutines started inside fn inherit the labels (the runtime/pprof
// contract), so every tile range ForTiles fans out from fn is attributed to
// this kernel in CPU profiles, whatever other kernels run concurrently.
// The labels end when fn returns: the goroutine is left unlabeled, not with
// the labels of an enclosing DoLabeled.
func DoLabeled(workload, variant, phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels(
		"workload", workload, "variant", variant, "phase", phase),
		func(context.Context) { fn() })
}

// ForTiles executes fn over the index space [0, n), statically partitioned
// into w = min(Workers(), n) contiguous ranges [lo, hi). Range 0 runs on the
// caller and ranges 1..w-1 each on a goroutine of their own, which inherits
// the caller's pprof labels; fn is free to keep per-range scratch state.
// ForTiles returns when every range has finished; a panic inside fn is
// re-raised on the caller as *WorkerPanic (with w <= 1 the original value
// is re-raised untouched). ForTiles is safe for concurrent and nested use.
//
// Determinism contract: callers must ensure each index writes only its own
// output region and that per-index work is independent (the tile property).
// Under that contract the result is bit-identical for every worker count.
func ForTiles(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := min(Workers(), n)
	if w <= 1 {
		metInlined.Inc()
		runRange(0, n, fn)
		return
	}

	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[WorkerPanic] // the first panic is re-raised
	)
	run := func(lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
			}
		}()
		runRange(lo, hi, fn)
	}

	// Balanced static partition: range i is [i*n/w, (i+1)*n/w), never
	// empty because w <= n.
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		go func() {
			defer wg.Done()
			t0 := time.Now()
			run(lo, hi)
			metBusy.Add(time.Since(t0).Seconds())
		}()
	}
	run(0, n/w)
	wg.Wait()
	metTasks.Add(uint64(w - 1))
	if wp := panicked.Load(); wp != nil {
		panic(wp)
	}
}

// runRange executes fn on [lo, hi), wrapped in the host-trace range hook
// when one is installed.
func runRange(lo, hi int, fn func(lo, hi int)) {
	if hp := rangeHook.Load(); hp != nil {
		end := (*hp)(lo, hi)
		fn(lo, hi)
		end()
		return
	}
	fn(lo, hi)
}
