package par

import (
	"bytes"
	"math"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForTilesMetrics pins the engine counters per grid: a serial grid is
// one inlined grid and starts no goroutine, and a parallel grid starts one
// task for every range but the caller's, whose run time adds to the busy
// seconds.
func TestForTilesMetrics(t *testing.T) {
	for _, tc := range []struct {
		workers, n     int
		tasks, inlined int
	}{
		{1, 32, 0, 1},
		{4, 64, 3, 0},
		{4, 2, 1, 0},
		{4, 1, 0, 1},
	} {
		withWorkers(t, tc.workers, func() {
			tasks, inlined, busy := metTasks.Value(), metInlined.Value(), metBusy.Value()
			ForTiles(tc.n, func(lo, hi int) { time.Sleep(time.Millisecond) })
			if d := metTasks.Value() - tasks; d != uint64(tc.tasks) {
				t.Errorf("%+v: tasks +%d, want +%d", tc, d, tc.tasks)
			}
			if d := metInlined.Value() - inlined; d != uint64(tc.inlined) {
				t.Errorf("%+v: inlined +%d, want +%d", tc, d, tc.inlined)
			}
			if d := metBusy.Value() - busy; d < float64(tc.tasks)*time.Millisecond.Seconds() {
				t.Errorf("%+v: busy +%.4fs, want >= %d ms", tc, d, tc.tasks)
			}
		})
	}
}

// TestScratchMetrics checks the hit/miss accounting: a fresh pool misses
// once, and a Get after Put is a hit (gets advance, misses may not).
func TestScratchMetrics(t *testing.T) {
	s := NewScratch(16)
	getsBefore, missesBefore := metScratchGets.Value(), metScratchMisses.Value()
	b := s.Get()
	if metScratchGets.Value() != getsBefore+1 {
		t.Fatal("Get did not count")
	}
	if metScratchMisses.Value() != missesBefore+1 {
		t.Fatal("first Get on a fresh pool must be a miss")
	}
	s.Put(b)
	// The recycled buffer should usually come back without a new miss; we
	// only assert gets advance (sync.Pool may legally drop the buffer).
	_ = s.Get()
	if metScratchGets.Value() != getsBefore+2 {
		t.Fatal("second Get did not count")
	}
}

// burnA and burnB are the range functions of the two kernels
// TestForTilesLabelsExact runs; as named top-level functions they tell a
// profile sample's stack which kernel's range it is in.
//
//go:noinline
func burnA(lo, hi int) { burnSink.Add(spin(lo, hi)) }

//go:noinline
func burnB(lo, hi int) { burnSink.Add(spin(lo, hi)) }

// burnSink keeps spin's result alive.
var burnSink atomic.Uint64

func spin(lo, hi int) uint64 {
	x := 0.0
	for i := lo; i < hi; i++ {
		for k := 0; k < 20000; k++ {
			x += float64(i^k) * 1e-9
		}
	}
	return math.Float64bits(x)
}

// TestForTilesLabelsExact runs two kernels at once, each under its own
// DoLabeled and each fanning its range function out through ForTiles at
// Workers(4), under a CPU profile. Every sample in one kernel's range
// function must carry that kernel's workload label, wherever the range ran.
// Profiling rounds of ~0.5 s repeat until each function has 10 samples.
func TestForTilesLabelsExact(t *testing.T) {
	kernels := []struct {
		workload string
		fn       func(lo, hi int)
		name     string // the fn's function name in the profile
	}{
		{"A", burnA, "repro/internal/par.burnA"},
		{"B", burnB, "repro/internal/par.burnB"},
	}
	const minSamples, maxRounds = 10, 10
	samples := map[string]int{}
	wrong := map[string]map[string]int{"A": {}, "B": {}}
	rounds := 0
	withWorkers(t, 4, func() {
		for ; rounds < maxRounds && (samples["A"] < minSamples || samples["B"] < minSamples); rounds++ {
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				t.Skipf("CPU profiling unavailable: %v", err)
			}
			var ready, done sync.WaitGroup
			ready.Add(len(kernels))
			done.Add(len(kernels))
			for _, k := range kernels {
				go func() {
					defer done.Done()
					DoLabeled(k.workload, "TC", "run", func() {
						ready.Done()
						ready.Wait()
						for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
							ForTiles(64, k.fn)
						}
					})
				}()
			}
			done.Wait()
			pprof.StopCPUProfile()
			prof, err := parseProfile(buf.Bytes())
			if err != nil {
				t.Fatalf("decode CPU profile: %v", err)
			}
			for _, s := range prof.samples {
				for _, k := range kernels {
					if !slices.Contains(s.funcs, k.name) {
						continue
					}
					samples[k.workload]++
					if got := s.labels["workload"]; got != k.workload {
						wrong[k.workload][got]++
					}
				}
			}
		}
	})
	t.Logf("%d rounds: %d samples in burnA, %d in burnB", rounds, samples["A"], samples["B"])
	for _, k := range kernels {
		if samples[k.workload] < minSamples {
			t.Errorf("%s: %d samples, want >= %d", k.name, samples[k.workload], minSamples)
		}
		for got, n := range wrong[k.workload] {
			t.Errorf("%s: %d of %d samples under workload %q, want %q",
				k.name, n, samples[k.workload], got, k.workload)
		}
	}
}

// TestRangeHook checks the hook fires once per executed range with closers
// called, in both serial and parallel modes, and that clearing it stops
// the callbacks.
func TestRangeHook(t *testing.T) {
	var began, ended atomic.Int64
	var coveredByHook atomic.Int64
	SetRangeHook(func(lo, hi int) func() {
		began.Add(1)
		coveredByHook.Add(int64(hi - lo))
		return func() { ended.Add(1) }
	})
	defer SetRangeHook(nil)

	withWorkers(t, 1, func() { ForTiles(10, func(lo, hi int) {}) })
	if began.Load() != 1 || ended.Load() != 1 || coveredByHook.Load() != 10 {
		t.Fatalf("serial: began=%d ended=%d covered=%d, want 1/1/10",
			began.Load(), ended.Load(), coveredByHook.Load())
	}

	began.Store(0)
	ended.Store(0)
	coveredByHook.Store(0)
	withWorkers(t, 4, func() { ForTiles(100, func(lo, hi int) {}) })
	if began.Load() != ended.Load() {
		t.Fatalf("parallel: %d begins but %d ends", began.Load(), ended.Load())
	}
	if coveredByHook.Load() != 100 {
		t.Fatalf("parallel: hook saw %d indices, want 100", coveredByHook.Load())
	}

	SetRangeHook(nil)
	began.Store(0)
	withWorkers(t, 1, func() { ForTiles(10, func(lo, hi int) {}) })
	if began.Load() != 0 {
		t.Fatal("cleared hook still fired")
	}
}

// TestDoLabeledNests: a DoLabeled inside another (an input build reached
// from a run) leaves the caller under its own labels when it returns. The
// goroutine profile prints each goroutine's labels beside its stack.
func TestDoLabeledNests(t *testing.T) {
	var labels string
	DoLabeled("outer", "TC", "run", func() {
		DoLabeled("inner", "TC", "layout", func() {})
		labels = ownLabels(t)
	})
	if !strings.Contains(labels, `"workload":"outer"`) || !strings.Contains(labels, `"phase":"run"`) {
		t.Fatalf("labels after a nested DoLabeled = %q, want the outer {outer, TC, run}", labels)
	}
}

// ownLabels returns the "# labels:" line of the goroutine calling it.
//
//go:noinline
func ownLabels(t *testing.T) string {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "repro/internal/par.ownLabels") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if strings.HasPrefix(line, "# labels:") {
				return line
			}
		}
		return ""
	}
	t.Fatal("own goroutine not in the goroutine profile")
	return ""
}
