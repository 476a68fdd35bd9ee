package trace

// Host-side tracing: alongside the *simulated* device timelines
// (Timeline), a HostRecorder captures what this process really did — the
// wall-clock span of every harness kernel execution and of every tile
// range the internal/par pool ran — in the same Chrome trace-event JSON, so
// a Perfetto view shows the emulator's own concurrency next to the modeled
// device's. See docs/OBSERVABILITY.md for how to read the output.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// hostPID is the synthetic Chrome-trace process id of the host track
// (device timelines number their pids from 1 per device; the host track
// uses a distinct range so the two can be merged by hand if desired).
const hostPID = 1000

// HostRecorder collects real wall-clock execution spans. Spans are placed
// on numbered lanes: a lane is held for the lifetime of its span and
// reused afterwards, so the lane count of the rendered timeline equals the
// peak host concurrency. The zero value is not usable; use NewHostRecorder
// or StartHost.
type HostRecorder struct {
	start time.Time

	mu     sync.Mutex
	events []Event
	lanes  []bool // lanes[i] == true while lane i is occupied
	peak   int
}

// NewHostRecorder returns a recorder whose clock starts now.
func NewHostRecorder() *HostRecorder {
	return &HostRecorder{start: time.Now()}
}

// active is the recorder HostSpan reports to (nil when host tracing is
// off). A single process-wide slot mirrors how CPU profiling works: one
// recording session at a time.
var active atomic.Pointer[HostRecorder]

// StartHost creates a recorder, installs it as the process-wide active one,
// and hooks the internal/par engine so every executed tile range is
// recorded. Call StopHost to detach before writing the result.
func StartHost() *HostRecorder {
	rec := NewHostRecorder()
	active.Store(rec)
	par.SetRangeHook(func(lo, hi int) func() {
		return rec.Span("par-range", fmt.Sprintf("tiles[%d,%d)", lo, hi))
	})
	return rec
}

// StopHost detaches the active recorder (if any) and returns it. The
// recorder remains readable; recording simply stops.
func StopHost() *HostRecorder {
	par.SetRangeHook(nil)
	return active.Swap(nil)
}

// ActiveHost returns the recorder installed by StartHost, or nil.
func ActiveHost() *HostRecorder { return active.Load() }

// noopEnd is the shared closer HostSpan returns when tracing is off, so the
// disabled path performs no allocation.
var noopEnd = func() {}

// HostSpan opens a span on the active recorder and returns its closer. When
// host tracing is off it returns a shared no-op, so instrumented call sites
// (harness.run) can call it unconditionally.
func HostSpan(category, name string) func() {
	rec := active.Load()
	if rec == nil {
		return noopEnd
	}
	return rec.Span(category, name)
}

// BuildInput runs fn, the build of one input a workload reads (a Table 3/4
// dataset, a case's layout, a dense operand), in a leaf host span of
// category "input" named "<phase> <workload>|<variant>", under pprof labels
// {workload, variant, phase}. The span is the build's own, whichever run
// reached the input first.
func BuildInput(workload, variant, phase string, fn func()) {
	defer HostSpan("input", phase+" "+workload+"|"+variant)()
	par.DoLabeled(workload, variant, phase, fn)
}

// Span records one wall-clock span: the lane is claimed now, the span's
// timestamps run from now until the returned closer is called, and the
// event is appended at close time. The closer must be called exactly once.
func (h *HostRecorder) Span(category, name string) func() {
	h.mu.Lock()
	lane := 0
	for lane < len(h.lanes) && h.lanes[lane] {
		lane++
	}
	if lane == len(h.lanes) {
		h.lanes = append(h.lanes, true)
	} else {
		h.lanes[lane] = true
	}
	if lane+1 > h.peak {
		h.peak = lane + 1
	}
	h.mu.Unlock()

	t0 := time.Now()
	return func() {
		dur := time.Since(t0)
		h.mu.Lock()
		h.events = append(h.events, Event{
			Name:     name,
			Category: category,
			Phase:    "X",
			TimeUS:   float64(t0.Sub(h.start).Nanoseconds()) / 1e3,
			DurUS:    float64(dur.Nanoseconds()) / 1e3,
			PID:      hostPID,
			TID:      lane + 1,
		})
		h.lanes[lane] = false
		h.mu.Unlock()
	}
}

// Len returns the number of completed spans recorded so far.
func (h *HostRecorder) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.events)
}

// Events returns a copy of the completed spans sorted by start time
// (metadata excluded).
func (h *HostRecorder) Events() []Event {
	h.mu.Lock()
	evs := append([]Event(nil), h.events...)
	h.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TimeUS < evs[j].TimeUS })
	return evs
}

// Write emits the host timeline as Chrome trace JSON: process/thread
// metadata first, then every span in ascending start-time order (events are
// buffered at span *end*, so sorting restores the monotonic order trace
// viewers expect).
func (h *HostRecorder) Write(w io.Writer) error {
	evs := h.Events()
	h.mu.Lock()
	peak := h.peak
	h.mu.Unlock()

	all := make([]Event, 0, len(evs)+peak+1)
	all = append(all, Event{
		Name: "process_name", Category: "__metadata", Phase: "M",
		PID: hostPID, Arguments: map[string]any{"name": "cubie host (real wall clock)"},
	})
	for lane := 1; lane <= peak; lane++ {
		all = append(all, Event{
			Name: "thread_name", Category: "__metadata", Phase: "M",
			PID: hostPID, TID: lane,
			Arguments: map[string]any{"name": fmt.Sprintf("lane-%02d", lane)},
		})
	}
	all = append(all, evs...)

	wrapper := struct {
		TraceEvents []Event `json:"traceEvents"`
	}{TraceEvents: all}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(wrapper)
}
