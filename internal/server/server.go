// Package server is the long-lived characterization daemon behind
// `cubie serve`: an HTTP/JSON control API over the existing engine. Every
// figure/table the CLI renders is servable at /api/v1/figures/{name}
// through the same harness catalog renderers, so a daemon's figure bytes
// are identical to `cubie all` stdout for that figure by construction.
// Single (workload, case, variant) runs and whole sweep/campaign plans
// route through the harness plan path, so concurrent identical queries
// dedupe via the singleflight run cache, and — with a runcache attached —
// results persist across daemon restarts.
//
// # Hot layer
//
// Rendered figures are memoized in memory, one flight per figure name in a
// par.Flights table, above the harness's own flight table of plan keys,
// which itself sits above the persistent runcache: a warm figure request
// costs one map lookup and one write, no run executions and no disk reads.
//
// # Admission control
//
// Requests that may execute workload runs (POST /api/v1/runs, campaign
// starts, cold figure renders) are admitted through a bounded slot pool
// (Config.MaxInflightRuns). When the pool is saturated the daemon sheds
// load: 429 with a Retry-After header instead of queueing unboundedly. A
// cold figure render shed at admission finishes its flight with the
// refusal, so a request that joined it gets the same 429 at once.
// Warm figure fetches and the health/metrics endpoints bypass admission
// entirely — a saturated daemon still observes and serves cached output.
//
// # Timeouts and graceful drain
//
// Run and figure requests are bounded by Config.RequestTimeout; on expiry
// the client gets 504 while the execution keeps running in the background
// and lands in the caches, so a retry joins or reuses it. On SIGTERM
// (ctx cancellation in Serve), the daemon stops accepting new work
// (/readyz flips to 503, new API requests get 503 "draining"), waits up to
// Config.DrainTimeout for in-flight requests and background work, then
// exits. See docs/SERVE.md for the full API reference.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/server/api"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// HTTP server metrics (see docs/OBSERVABILITY.md). Per-route request and
// latency series are registered lazily by handle() with a route label.
var (
	metHTTPInFlight = metrics.NewGauge("cubie_http_in_flight",
		"HTTP requests currently being served.")
	metHTTPRejected = metrics.NewCounter("cubie_http_rejected_total",
		"Requests shed by admission control (429 + Retry-After).")
	metHTTPTimeouts = metrics.NewCounter("cubie_http_timeouts_total",
		"Requests that exceeded the per-request timeout (504; the execution continues in the background).")
	metFigureHits = metrics.NewCounter("cubie_server_figure_cache_hits_total",
		"Figure requests served from the in-memory rendered-figure hot layer.")
	metFigureMisses = metrics.NewCounter("cubie_server_figure_cache_misses_total",
		"Figure requests that had to render (and possibly execute runs).")
	metCampaignsStarted = metrics.NewCounter("cubie_server_campaigns_started_total",
		"Campaign plans accepted and started in the background.")
)

// Server is one daemon instance over one harness.
type Server struct {
	cfg Config
	h   *harness.Harness
	mux *http.ServeMux

	// runSlots is the admission pool: one token per concurrently admitted
	// run-executing request.
	runSlots chan struct{}

	// work tracks background executions (campaigns, timed-out requests
	// whose run goroutine is still finishing) for the drain phase.
	work sync.WaitGroup

	inFlight atomic.Int64
	draining atomic.Bool

	figures par.Flights[string, []byte]

	campMu    sync.Mutex
	campaigns []*campaign
	campSeq   int

	// queue is the distributed-campaign lease queue this daemon
	// coordinates (nil unless SetWorkQueue was called — see work.go).
	queueMu sync.Mutex
	queue   *harness.WorkQueue

	lnMu sync.Mutex
	ln   net.Listener
}

// New creates a server over h with cfg (which must Validate).
func New(h *harness.Harness, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		h:        h,
		mux:      http.NewServeMux(),
		runSlots: make(chan struct{}, cfg.MaxInflightRuns),
	}
	s.routes()
	return s, nil
}

// routes registers the full route table. docs/SERVE.md documents exactly
// these patterns; cmd/docscheck cross-references the two (the s.handle
// literal is the anchor it greps for), so adding a route without
// documenting it — or documenting one that does not exist — fails
// `make docs-check`.
func (s *Server) routes() {
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /api/v1/figures", s.handleFigures)
	s.handle("GET /api/v1/figures/{name}", s.handleFigure)
	s.handle("POST /api/v1/runs", s.handleRun)
	s.handle("GET /api/v1/campaigns", s.handleCampaigns)
	s.handle("POST /api/v1/campaigns", s.handleCampaignStart)
	s.handle("GET /api/v1/campaigns/{id}", s.handleCampaign)
	s.handle("GET /api/v1/campaigns/{id}/events", s.handleCampaignEvents)
	s.handle("GET /api/v1/cache/{key}", s.handleCacheGet)
	s.handle("PUT /api/v1/cache/{key}", s.handleCachePut)
	s.handle("POST /api/v1/work/lease", s.handleWorkLease)
	s.handle("POST /api/v1/work/complete", s.handleWorkComplete)
	s.handle("GET /api/v1/work", s.handleWorkStatus)
	s.handle("/", s.handleNotFound)
}

// handle registers one route with its instrumentation: a per-route
// request counter and latency histogram, the shared in-flight gauge, and
// a host span per request (category "http", named by the route pattern).
func (s *Server) handle(pattern string, fn http.HandlerFunc) {
	reqs := metrics.NewCounter("cubie_http_requests_total",
		"HTTP requests received, by registered route pattern.",
		metrics.Label{Key: "route", Value: pattern})
	lat := metrics.NewHistogram("cubie_http_request_seconds",
		"Wall-clock seconds from request receipt to handler return, by route.",
		metrics.DefTimeBuckets,
		metrics.Label{Key: "route", Value: pattern})
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		metHTTPInFlight.Set(float64(s.inFlight.Add(1)))
		endSpan := trace.HostSpan("http", pattern)
		t0 := time.Now()
		defer func() {
			lat.Observe(time.Since(t0).Seconds())
			endSpan()
			metHTTPInFlight.Set(float64(s.inFlight.Add(-1)))
		}()
		fn(w, r)
	})
}

// Handler returns the daemon's HTTP handler (httptest mounts this).
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address ("" before Serve binds).
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Run listens on cfg.Addr, writes cfg.AddrFile if configured, and serves
// until ctx is cancelled (the CLI cancels it on SIGINT/SIGTERM), then
// drains gracefully.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.Serve(ctx, ln)
}

// Serve runs the daemon on an existing listener until ctx is cancelled,
// then drains: the readiness probe flips to 503, new API work is refused,
// in-flight requests get up to DrainTimeout to finish, and background
// campaign work is awaited within the same budget.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	if s.cfg.AddrFile != "" {
		if err := os.WriteFile(s.cfg.AddrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("serve: write addr file: %w", err)
		}
	}
	srv := &http.Server{Handler: s.mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Drain: refuse new work, then give in-flight requests and background
	// executions one shared budget to finish.
	s.draining.Store(true)
	deadline := time.Now().Add(time.Duration(s.cfg.DrainTimeout))
	shCtx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	err := srv.Shutdown(shCtx)

	done := make(chan struct{})
	go func() { s.work.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		if err == nil {
			err = fmt.Errorf("serve: drain timed out with background work still running")
		}
	}
	return err
}

// --- response helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{Error: api.Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// refusal is why admission shed a request: the status, error code and
// message of its response.
type refusal struct {
	status int
	code   string
	msg    string
}

func (r *refusal) Error() string { return r.msg }

// admit takes one run slot and returns its release function, or the
// refusal when the daemon is draining or saturated (write it with refuse).
func (s *Server) admit() (func(), *refusal) {
	if s.draining.Load() {
		return nil, &refusal{http.StatusServiceUnavailable, api.CodeDraining,
			"daemon is draining and admits no new work"}
	}
	select {
	case s.runSlots <- struct{}{}:
		return func() { <-s.runSlots }, nil
	default:
		return nil, &refusal{http.StatusTooManyRequests, api.CodeSaturated,
			fmt.Sprintf("all %d run slots are busy; retry after %s seconds",
				s.cfg.MaxInflightRuns, s.cfg.retryAfterSeconds())}
	}
}

// refuse writes a refusal; a 429 carries Retry-After and counts as shed.
func (s *Server) refuse(w http.ResponseWriter, ref *refusal) {
	if ref.status == http.StatusTooManyRequests {
		metHTTPRejected.Inc()
		w.Header().Set("Retry-After", s.cfg.retryAfterSeconds())
	}
	writeError(w, ref.status, ref.code, "%s", ref.msg)
}

// await runs fn on a drain-tracked goroutine and waits for it, the
// request timeout, or client disconnect. On timeout/disconnect fn keeps
// running in the background (its outcome lands in the caches) and await
// reports ok=false after writing the 504. release is called when fn
// completes, never earlier — a timed-out execution still occupies its
// admission slot, because it still occupies the machine.
func (s *Server) await(w http.ResponseWriter, r *http.Request, release func(), fn func() error, then func()) {
	done := make(chan error, 1)
	s.work.Add(1)
	go func() {
		defer s.work.Done()
		defer release()
		done <- fn()
	}()
	timeout := time.NewTimer(time.Duration(s.cfg.RequestTimeout))
	defer timeout.Stop()
	select {
	case err := <-done:
		if err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, "%v", err)
			return
		}
		then()
	case <-timeout.C:
		metHTTPTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, api.CodeTimeout,
			"request exceeded %s; the execution continues and a retry will reuse it",
			time.Duration(s.cfg.RequestTimeout))
	case <-r.Context().Done():
		// Client went away; the execution continues for the next caller.
	}
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Health{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WritePrometheus(w)
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, api.CodeNotFound,
		"no route for %s %s (see docs/SERVE.md)", r.Method, r.URL.Path)
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	var out api.FiguresResponse
	for _, f := range harness.Catalog() {
		out.Figures = append(out.Figures, api.FigureInfo{
			Name: f.Name, Title: f.Title, InAll: f.InAll,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleFigure serves one rendered figure as text/plain — byte-identical
// to the `cubie all` section for that figure (same renderer, same
// parameters). Warm figures come from the in-memory hot layer without
// admission; a cold render takes a run slot for its execution phase.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := harness.FigureByName(name); !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown figure %q", name)
		return
	}

	f, owner := s.figures.Join(name)
	if !owner {
		metFigureHits.Inc()
		select {
		case <-f.Done():
			// Rendered (or refused) already: serve from the hot layer.
			s.writeFigure(w, name, f)
		default:
			// A concurrent identical request is rendering: wait on it (no
			// admission slot needed — the renderer holds one).
			s.awaitFigure(w, r, name, f)
		}
		return
	}
	metFigureMisses.Inc()
	s.renderFigure(w, r, name, f)
}

// renderFigure is the owner's half of a cold figure request: it admits the
// render and waits for it, or finishes the flight with the refusal.
func (s *Server) renderFigure(w http.ResponseWriter, r *http.Request, name string, f *par.Flight[[]byte]) {
	release, ref := s.admit()
	if ref != nil {
		// Finish the flight with the refusal: a request that joined it gets
		// the same answer at once, and the next request retries.
		s.figures.Finish(name, f, nil, ref)
		s.refuse(w, ref)
		return
	}
	s.work.Add(1)
	go func() {
		defer s.work.Done()
		defer release()
		var buf strings.Builder
		err := s.h.RenderFigure(&buf, name)
		// A failed render leaves the table, so a later request retries.
		s.figures.Finish(name, f, []byte(buf.String()), err)
	}()
	s.awaitFigure(w, r, name, f)
}

// awaitFigure waits for a figure flight within the request timeout.
func (s *Server) awaitFigure(w http.ResponseWriter, r *http.Request, name string, f *par.Flight[[]byte]) {
	timeout := time.NewTimer(time.Duration(s.cfg.RequestTimeout))
	defer timeout.Stop()
	select {
	case <-f.Done():
		s.writeFigure(w, name, f)
	case <-timeout.C:
		metHTTPTimeouts.Inc()
		writeError(w, http.StatusGatewayTimeout, api.CodeTimeout,
			"figure %q exceeded %s; the render continues and a retry will reuse it",
			name, time.Duration(s.cfg.RequestTimeout))
	case <-r.Context().Done():
	}
}

// writeFigure writes a finished flight: the figure's bytes, the refusal
// that shed its render, or its render error.
func (s *Server) writeFigure(w http.ResponseWriter, name string, f *par.Flight[[]byte]) {
	data, err := f.Result()
	var ref *refusal
	switch {
	case errors.As(err, &ref):
		s.refuse(w, ref)
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.CodeInternal,
			"figure %q: %v", name, err)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(data)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decode request: %v", err)
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "workload must not be empty")
		return
	}
	if req.Variant == "" {
		req.Variant = string(workload.TC)
	}
	if req.GPU == "" {
		req.GPU = "H200"
	}
	spec, err := device.ByName(req.GPU)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if _, _, err := s.h.ResolveRun(req.Workload, req.Case, workload.Variant(req.Variant)); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}

	release, ref := s.admit()
	if ref != nil {
		s.refuse(w, ref)
		return
	}
	var c workload.Case
	var res *workload.Result
	s.await(w, r, release, func() error {
		var runErr error
		c, res, runErr = s.h.RunOne(req.Workload, req.Case, workload.Variant(req.Variant))
		return runErr
	}, func() {
		rep := sim.Run(spec, res.Profile)
		writeJSON(w, http.StatusOK, api.RunResponse{
			Workload:   req.Workload,
			Case:       c.Name,
			Variant:    req.Variant,
			GPU:        spec.Name,
			Work:       res.Work,
			Metric:     res.MetricName,
			SimTimeS:   rep.Time,
			Throughput: res.Work / rep.Time / 1e9,
			Bottleneck: rep.Bottleneck,
		})
	})
}
