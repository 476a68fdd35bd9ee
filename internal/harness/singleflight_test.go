package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

// countingWorkload records how many times Run and Reference execute and
// can be told to fail the first few attempts of each.
type countingWorkload struct {
	runs        atomic.Int64
	failures    atomic.Int64 // remaining runs that should error
	refs        atomic.Int64
	refFailures atomic.Int64  // remaining references that should error
	block       chan struct{} // if non-nil, Run and Reference wait on it (to pile up callers)
}

func (w *countingWorkload) Name() string                 { return "counting" }
func (w *countingWorkload) Quadrant() int                { return 1 }
func (w *countingWorkload) Dwarf() string                { return "test" }
func (w *countingWorkload) Cases() []workload.Case       { return []workload.Case{{Name: "only"}} }
func (w *countingWorkload) Variants() []workload.Variant { return []workload.Variant{workload.TC} }
func (w *countingWorkload) Representative() workload.Case {
	return w.Cases()[0]
}
func (w *countingWorkload) Repeats() int { return 1 }

func (w *countingWorkload) Run(c workload.Case, v workload.Variant) (*workload.Result, error) {
	w.runs.Add(1)
	if w.block != nil {
		<-w.block
	}
	if w.failures.Add(-1) >= 0 {
		return nil, errors.New("counting: injected failure")
	}
	return &workload.Result{Work: 1, MetricName: "ops", Output: []float64{42}}, nil
}

func (w *countingWorkload) Profile(c workload.Case, v workload.Variant) (*workload.Result, error) {
	res, err := w.Run(c, v)
	if err != nil {
		return nil, err
	}
	res.Output = nil
	return res, nil
}

func (w *countingWorkload) Reference(c workload.Case) ([]float64, error) {
	w.refs.Add(1)
	if w.block != nil {
		<-w.block
	}
	if w.refFailures.Add(-1) >= 0 {
		return nil, errors.New("counting: injected reference failure")
	}
	return []float64{42}, nil
}

// flightKind is one kind of plan key the flight tests drive: how many
// times its computation ran, where to inject failures (nil: none), whether
// joins count as deduplicated runs, and how to read it. get returns what
// identifies the shared value (a result pointer, a backing array) and the
// value's output.
type flightKind struct {
	name     string
	execs    func(w *countingWorkload) int64
	failures func(w *countingWorkload) *atomic.Int64
	deduped  bool
	get      func(h *Harness, w *countingWorkload) (id any, out []float64, err error)
}

var flightKinds = []flightKind{
	{
		name:     "run",
		execs:    func(w *countingWorkload) int64 { return w.runs.Load() },
		failures: func(w *countingWorkload) *atomic.Int64 { return &w.failures },
		deduped:  true,
		get: func(h *Harness, w *countingWorkload) (any, []float64, error) {
			res, err := h.run(w, w.Representative(), workload.TC)
			if res == nil {
				return nil, nil, err
			}
			return res, res.Output, err
		},
	},
	{
		name:     "reference",
		execs:    func(w *countingWorkload) int64 { return w.refs.Load() },
		failures: func(w *countingWorkload) *atomic.Int64 { return &w.refFailures },
		deduped:  true,
		get: func(h *Harness, w *countingWorkload) (any, []float64, error) {
			out, err := h.reference(w, w.Representative())
			if len(out) == 0 {
				return nil, nil, err
			}
			return &out[0], out, err
		},
	},
	{
		name:  "memo",
		execs: func(*countingWorkload) int64 { return int64(metMemosComputed.Value()) },
		get: func(h *Harness, _ *countingWorkload) (any, []float64, error) {
			v, err := h.memoValue("graph-reps")
			feats, _ := v.([][]float64)
			if len(feats) == 0 {
				return nil, nil, err
			}
			return &feats[0], feats[0], err
		},
	},
}

// TestRunSingleflight is the regression test for the duplicate-execution
// race: N goroutines requesting the same key while the first computation
// is still in flight must share one execution, for every key kind. The old
// check-then-run cache let all of them miss the cache and call Run. Joins
// of a run or reference count as deduplicated runs; a memo's do not.
func TestRunSingleflight(t *testing.T) {
	for _, k := range flightKinds {
		t.Run(k.name, func(t *testing.T) {
			w := &countingWorkload{block: make(chan struct{})}
			h := New()
			execs := k.execs(w)
			deduped := metRunsDeduped.Value()

			const callers = 16
			var wg sync.WaitGroup
			ids := make([]any, callers)
			errs := make([]error, callers)
			started := make(chan struct{}, callers)
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					started <- struct{}{}
					ids[i], _, errs[i] = k.get(h, w)
				}(i)
			}
			// Wait until every caller goroutine is launched, then release
			// the one execution that should be in flight.
			for i := 0; i < callers; i++ {
				<-started
			}
			close(w.block)
			wg.Wait()

			if got := k.execs(w) - execs; got != 1 {
				t.Fatalf("computed %d times, want exactly 1", got)
			}
			wantDeduped := uint64(0)
			if k.deduped {
				wantDeduped = callers - 1
			}
			if got := metRunsDeduped.Value() - deduped; got != wantDeduped {
				t.Fatalf("runs_deduped moved by %d, want %d", got, wantDeduped)
			}
			for i := 0; i < callers; i++ {
				if errs[i] != nil {
					t.Fatalf("caller %d: %v", i, errs[i])
				}
				if ids[i] == nil || ids[i] != ids[0] {
					t.Fatalf("caller %d got a different value", i)
				}
			}
		})
	}
}

// TestRunRetriesAfterError checks that a failed run or reference is
// evicted from the flight table so a later caller retries instead of
// reusing the error forever.
func TestRunRetriesAfterError(t *testing.T) {
	for _, k := range flightKinds {
		if k.failures == nil {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			w := &countingWorkload{}
			k.failures(w).Store(1)
			h := New()
			failed, retried := metRunsFailed.Value(), metRunsRetried.Value()

			if _, _, err := k.get(h, w); err == nil {
				t.Fatal("first call: want injected failure")
			}
			_, out, err := k.get(h, w)
			if err != nil {
				t.Fatalf("second call: %v", err)
			}
			if len(out) != 1 || out[0] != 42 {
				t.Fatalf("second call: unexpected output %v", out)
			}
			if got := k.execs(w); got != 2 {
				t.Fatalf("executed %d times, want 2 (fail, then retry)", got)
			}
			if f, r := metRunsFailed.Value()-failed, metRunsRetried.Value()-retried; f != 1 || r != 1 {
				t.Fatalf("runs_failed moved by %d and runs_retried by %d, want 1 and 1", f, r)
			}
			// Third call must now join the completed flight.
			if _, _, err := k.get(h, w); err != nil {
				t.Fatalf("third call: %v", err)
			}
			if got := k.execs(w); got != 2 {
				t.Fatalf("executed %d times after the flight completed, want 2", got)
			}
		})
	}
}
