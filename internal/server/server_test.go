package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/workload"
)

// metRunsStarted is the harness's execution counter — the registry
// get-or-creates by name, so this is the same counter harness.go owns.
var testRunsStarted = metrics.NewCounter("cubie_harness_runs_started_total",
	"Workload executions the harness actually started (cache misses).")

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Defaults()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(harness.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestFigureBytesMatchCLI: every run-free figure endpoint returns exactly
// the bytes the CLI renderer produces — the serve/CLI byte-identity
// contract, checked on the sections that need no workload executions.
// (The run-backed sections share the identical renderer functions; the
// warm `cubie all` diff in the Makefile smoke covers the composition.)
func TestFigureBytesMatchCLI(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, name := range []string{"suite", "specs", "quadrants", "dwarfs", "observe", "datasets", "figure12"} {
		var want bytes.Buffer
		if err := s.h.RenderFigure(&want, name); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/api/v1/figures/" + name)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("figure %q: HTTP %d: %s", name, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("figure %q bytes differ from the CLI renderer", name)
		}
		// Second fetch must come from the hot layer, byte-identical.
		hits := metFigureHits.Value()
		resp2, err := http.Get(ts.URL + "/api/v1/figures/" + name)
		if err != nil {
			t.Fatal(err)
		}
		got2, _ := io.ReadAll(resp2.Body)
		resp2.Body.Close()
		if !bytes.Equal(got2, want.Bytes()) {
			t.Fatalf("warm figure %q bytes differ", name)
		}
		if metFigureHits.Value() != hits+1 {
			t.Fatalf("warm figure %q missed the hot layer", name)
		}
	}
}

// TestFiguresCatalogListed: the catalog endpoint lists every figure with
// its in-all flag.
func TestFiguresCatalogListed(t *testing.T) {
	_, ts := newTestServer(t, nil)
	var out api.FiguresResponse
	getJSON(t, ts.URL+"/api/v1/figures", &out)
	if len(out.Figures) != len(harness.Catalog()) {
		t.Fatalf("listed %d figures, catalog has %d", len(out.Figures), len(harness.Catalog()))
	}
	names := map[string]bool{}
	for _, f := range out.Figures {
		names[f.Name] = true
	}
	for _, want := range []string{"specs", "figure3", "table6", "sweep"} {
		if !names[want] {
			t.Fatalf("catalog listing missing %q", want)
		}
	}
}

// TestRunRequestsDedupeToOneExecution: concurrent identical run requests
// share one workload execution through the harness singleflight cache,
// observable as exactly one increment of runs_started_total.
func TestRunRequestsDedupeToOneExecution(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.MaxInflightRuns = 16 })
	w, err := s.h.Suite.ByName("GEMV")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(api.RunRequest{
		Workload: "GEMV", Case: w.Cases()[0].Name, Variant: string(workload.TC),
	})

	before := testRunsStarted.Value()
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	results := make([]api.RunResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := testRunsStarted.Value() - before; got != 1 {
		t.Fatalf("%d identical requests started %d executions, want 1 (singleflight)", n, got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("request %d result %+v differs from %+v", i, results[i], results[0])
		}
	}
	if results[0].SimTimeS <= 0 || results[0].Throughput <= 0 || results[0].GPU != "H200" {
		t.Fatalf("implausible run response: %+v", results[0])
	}
}

// TestSaturationSheds429: with every run slot busy, run-executing requests
// get 429 + Retry-After, while warm figures and health stay servable. A
// request that joined a cold figure's flight whose owner is then shed
// gets the same 429 at once, not a 504 after the request timeout.
func TestSaturationSheds429(t *testing.T) {
	const requestTimeout = 20 * time.Second
	s, ts := newTestServer(t, func(c *Config) {
		c.MaxInflightRuns = 1
		c.RetryAfter = Duration(3 * time.Second)
		c.RequestTimeout = Duration(requestTimeout)
	})

	// Warm a figure while the slot is free.
	if resp, err := http.Get(ts.URL + "/api/v1/figures/specs"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up figure: %v (%v)", err, resp)
	} else {
		resp.Body.Close()
	}

	// Occupy the only slot.
	s.runSlots <- struct{}{}
	defer func() { <-s.runSlots }()

	body, _ := json.Marshal(api.RunRequest{Workload: "GEMV"})
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != api.CodeSaturated {
		t.Fatalf("saturated run: HTTP %d code %q, want 429 %q", resp.StatusCode, env.Error.Code, api.CodeSaturated)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}

	// A cold figure render needs a slot too.
	resp, err = http.Get(ts.URL + "/api/v1/figures/whatif")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated cold figure: HTTP %d, want 429", resp.StatusCode)
	}

	// A request joins a cold figure's flight before its owner reaches
	// admission; the owner is shed, and the joiner gets its 429 at once.
	f, owner := s.figures.Join("whatif")
	if !owner {
		t.Fatal("whatif: a shed render left its flight in the table")
	}
	hits := metFigureHits.Value()
	type answer struct {
		status int
		after  time.Duration
	}
	joined := make(chan answer, 1)
	t0 := time.Now()
	go func() {
		resp, err := http.Get(ts.URL + "/api/v1/figures/whatif")
		if err != nil {
			joined <- answer{-1, time.Since(t0)}
			return
		}
		resp.Body.Close()
		joined <- answer{resp.StatusCode, time.Since(t0)}
	}()
	for metFigureHits.Value() == hits {
		time.Sleep(time.Millisecond) // until the request has joined
	}
	rec := httptest.NewRecorder()
	s.renderFigure(rec, httptest.NewRequest("GET", "/api/v1/figures/whatif", nil), "whatif", f)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed owner: HTTP %d, want 429", rec.Code)
	}
	if a := <-joined; a.status != http.StatusTooManyRequests || a.after > requestTimeout/4 {
		t.Fatalf("joiner of a shed render: HTTP %d after %s, want 429 well before %s",
			a.status, a.after, requestTimeout)
	}

	// The warm figure and the probes bypass admission entirely.
	for _, path := range []string{"/api/v1/figures/specs", "/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("saturated %s: HTTP %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestDrainingRefusesNewWork: once draining, readiness flips to 503 and
// new API work is refused with the draining code.
func TestDrainingRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.draining.Store(true)

	var h api.Health
	resp := getJSON(t, ts.URL+"/readyz", &h)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining readyz: HTTP %d %+v", resp.StatusCode, h)
	}

	body, _ := json.Marshal(api.RunRequest{Workload: "GEMV"})
	r2, err := http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env api.ErrorResponse
	err = json.NewDecoder(r2.Body).Decode(&env)
	r2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r2.StatusCode != http.StatusServiceUnavailable || env.Error.Code != api.CodeDraining {
		t.Fatalf("draining run: HTTP %d code %q", r2.StatusCode, env.Error.Code)
	}

	// Liveness keeps answering ok — the process is healthy, just leaving.
	resp = getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("draining healthz: HTTP %d %+v", resp.StatusCode, h)
	}
}

// TestErrorEnvelopes: unknown routes, figures, campaigns, and malformed
// bodies all answer with the documented JSON error envelope.
func TestErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"GET", "/nope", "", http.StatusNotFound, api.CodeNotFound},
		{"GET", "/api/v1/figures/figure99", "", http.StatusNotFound, api.CodeNotFound},
		{"GET", "/api/v1/campaigns/c99", "", http.StatusNotFound, api.CodeNotFound},
		{"GET", "/api/v1/campaigns/c99/events", "", http.StatusNotFound, api.CodeNotFound},
		{"POST", "/api/v1/runs", `{"workload":""}`, http.StatusBadRequest, api.CodeBadRequest},
		{"POST", "/api/v1/runs", `{"werkload":"GEMM"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"POST", "/api/v1/runs", `{"workload":"GEMM","gpu":"H900"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"POST", "/api/v1/runs", `{"workload":"NoSuchKernel"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"POST", "/api/v1/runs", `{"workload":"GEMM","case":"3x3x3"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"POST", "/api/v1/runs", `{"workload":"PiC","variant":"Baseline"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"POST", "/api/v1/campaigns", `{"plan":"everything"}`, http.StatusBadRequest, api.CodeBadRequest},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: envelope decode: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != tc.status || env.Error.Code != tc.code {
			t.Fatalf("%s %s: HTTP %d code %q, want %d %q",
				tc.method, tc.path, resp.StatusCode, env.Error.Code, tc.status, tc.code)
		}
		if env.Error.Message == "" {
			t.Fatalf("%s %s: empty error message", tc.method, tc.path)
		}
	}
}

// TestCampaignLifecycle: a small fabricated campaign (the POST handler's
// exact goroutine shape over hand-picked keys) progresses from running to
// done, is visible in the list, and streams NDJSON events ending with the
// final state.
func TestCampaignLifecycle(t *testing.T) {
	s, ts := newTestServer(t, nil)
	w, err := s.h.Suite.ByName("GEMV")
	if err != nil {
		t.Fatal(err)
	}
	small := w.Cases()[0].Name
	gate := make(chan struct{})
	c := &campaign{
		id:   "c1",
		plan: "test",
		keys: []harness.RunKey{
			{Workload: "GEMV", Case: small, Variant: workload.TC},
			{Workload: "GEMV", Case: small, Variant: workload.TC}, // duplicate: Total must count 1
			{Workload: "GEMV", Case: small, Variant: workload.Baseline},
		},
		start: time.Now(),
		done:  make(chan struct{}),
	}
	s.campMu.Lock()
	s.campaigns = append(s.campaigns, c)
	s.campMu.Unlock()
	go func() {
		<-gate
		c.err = s.h.Execute(c.keys)
		c.elapsed = time.Since(c.start).Seconds()
		close(c.done)
	}()

	var st api.CampaignStatus
	resp := getJSON(t, ts.URL+"/api/v1/campaigns/c1", &st)
	if resp.StatusCode != http.StatusOK || st.State != "running" || st.Total != 2 || st.Completed != 0 {
		t.Fatalf("pre-execution status: HTTP %d %+v", resp.StatusCode, st)
	}

	close(gate)
	// The events stream ends with the terminal state.
	cl := client.New(strings.TrimPrefix(ts.URL, "http://"))
	var lastSt api.CampaignStatus
	if err := cl.CampaignEvents("c1", func(st api.CampaignStatus) bool {
		lastSt = st
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if lastSt.State != "done" || lastSt.Completed != 2 || lastSt.Error != "" {
		t.Fatalf("final event: %+v", lastSt)
	}

	list, err := cl.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "c1" || list[0].State != "done" {
		t.Fatalf("campaign list: %+v", list)
	}
}

// TestServeHandshakeAndGracefulShutdown: Run binds port 0, writes the
// actual address to AddrFile, serves the typed client, and drains cleanly
// on context cancellation (the CLI's SIGTERM path).
func TestServeHandshakeAndGracefulShutdown(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	cfg := Defaults()
	cfg.Addr = "127.0.0.1:0"
	cfg.AddrFile = addrFile
	cfg.DrainTimeout = Duration(10 * time.Second)
	s, err := New(harness.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("addr file never appeared")
		}
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			addr = strings.TrimSpace(string(data))
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if got := s.Addr(); got != addr {
		t.Fatalf("Addr() = %q, addr file has %q", got, addr)
	}

	cl := client.New(addr)
	if h, err := cl.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("health over the wire: %+v, %v", h, err)
	}
	figs, err := cl.Figures()
	if err != nil || len(figs) == 0 {
		t.Fatalf("figures over the wire: %d, %v", len(figs), err)
	}
	data, err := cl.Figure("specs")
	if err != nil || !bytes.Contains(data, []byte("H200")) {
		t.Fatalf("figure over the wire: %q, %v", data, err)
	}
	// The typed client surfaces the envelope as *api.Error.
	if _, err := cl.Figure("figure99"); err == nil {
		t.Fatal("client accepted an unknown figure")
	} else if apiErr, ok := err.(*api.Error); !ok || apiErr.Code != api.CodeNotFound || apiErr.Status != http.StatusNotFound {
		t.Fatalf("client error = %#v, want *api.Error not_found 404", err)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}
