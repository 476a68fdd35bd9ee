package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/trace"
)

// tracer records the benchmark's own spans: one per call into a layer's
// public functions, each with its layer, its parent span, and wall-clock
// start and end. Spans stay in memory until writeChrome. A nil *tracer
// records nothing, so traced and untraced paths share their code.
type tracer struct {
	start time.Time

	mu    sync.Mutex
	spans []spanRec
}

type spanRec struct {
	layer, name string
	parent      int           // id of the parent span; 0 for a root
	begin, end  time.Duration // offsets from tracer.start; end < 0 while open
}

// span is a handle on one open span. It times its interval even when the
// tracer is nil; the zero span is the parent of root spans.
type span struct {
	t  *tracer
	id int // index+1 into t.spans
	t0 time.Time
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span of layer under parent.
func (t *tracer) begin(parent span, layer, name string) span {
	now := time.Now()
	if t == nil {
		return span{t0: now}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{layer: layer, name: name, parent: parent.id, begin: now.Sub(t.start), end: -1})
	return span{t: t, id: len(t.spans), t0: now}
}

// end closes the span and returns its duration.
func (s span) end() time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans[s.id-1].end = now.Sub(s.t.start)
		s.t.mu.Unlock()
	}
	return now.Sub(s.t0)
}

// childTime sums the durations of the closed direct children of s.
func (s span) childTime() time.Duration {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	var d time.Duration
	for _, r := range s.t.spans {
		if r.parent == s.id && r.end >= 0 {
			d += r.end - r.begin
		}
	}
	return d
}

// writeChrome writes the closed spans as Chrome trace-event JSON: the layer
// is the event category, and args carry the span's id and its parent's.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	evs := make([]trace.Event, 0, len(t.spans))
	for i, r := range t.spans {
		if r.end < 0 {
			continue
		}
		evs = append(evs, trace.Event{
			Name:      r.name,
			Category:  r.layer,
			Phase:     "X",
			TimeUS:    float64(r.begin.Nanoseconds()) / 1e3,
			DurUS:     float64((r.end - r.begin).Nanoseconds()) / 1e3,
			PID:       1,
			TID:       1,
			Arguments: map[string]any{"id": i + 1, "parent": r.parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents []trace.Event `json:"traceEvents"`
	}{evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
