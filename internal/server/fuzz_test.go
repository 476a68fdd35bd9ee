package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/server/client"
)

// FuzzLoadFile feeds arbitrary bytes to the config file loader: it must
// return a config or an error, never panic.
func FuzzLoadFile(f *testing.F) {
	f.Add([]byte(`{"addr": "127.0.0.1:0", "max_inflight_runs": 3, "request_timeout": "90s"}`))
	f.Add([]byte(`{"max_inflight_runs": -1, "request_timeout": "soon"}`))
	f.Add([]byte(`{"adr": "x"}`))
	f.Add([]byte(`{"addr": 7}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "serve.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := Defaults()
		if cfg.LoadFile(path) == nil {
			_ = cfg.Validate()
		}
	})
}

// fuzzHandler returns the handler of a daemon that coordinates a
// two-key GEMV queue, so the work routes decode into a live queue.
func fuzzHandler(f *testing.F) http.Handler {
	f.Helper()
	s, err := New(harness.New(), Defaults())
	if err != nil {
		f.Fatal(err)
	}
	w, err := s.h.Suite.ByName("GEMV")
	if err != nil {
		f.Fatal(err)
	}
	c := w.Cases()[len(w.Cases())-1].Name
	q, err := s.h.NewWorkQueue([]harness.RunKey{
		{Workload: "GEMV", Case: c, Variant: "TC"},
		{Workload: "GEMV", Case: c, Variant: "Baseline"},
	}, time.Minute)
	if err != nil {
		f.Fatal(err)
	}
	s.SetWorkQueue(q)
	return s.Handler()
}

// fuzzPost posts body to path on h and fails on any status but 2xx, 400,
// 404 and 503: a request body may be refused, never crash the daemon.
func fuzzPost(t *testing.T, h http.Handler, path string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch code := rec.Code; {
	case code >= 200 && code < 300, code == http.StatusBadRequest,
		code == http.StatusNotFound, code == http.StatusServiceUnavailable:
	default:
		t.Fatalf("POST %s %q: HTTP %d: %s", path, body, code, rec.Body.String())
	}
}

func FuzzRunRequest(f *testing.F) {
	h := fuzzHandler(f)
	for _, s := range []string{
		`{"workload":"GEMV"}`,
		`{"workload":"GEMM","case":"4Kx4Kx4K","variant":"CC","gpu":"B200"}`,
		`{"workload":"PiC","variant":"Baseline"}`,
		`{"workload":"GEMV","case":"nope"}`,
		`{"workload":"nope"}`,
		`{"workload":"GEMV","gpu":"H900"}`,
		`{"workload":"GEMV","werkload":"x"}`,
		`{"workload":1}`,
		`[]`, `null`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { fuzzPost(t, h, "/api/v1/runs", body) })
}

func FuzzWorkLease(f *testing.F) {
	h := fuzzHandler(f)
	for _, s := range []string{`{"worker":"w1"}`, `{}`, ``, `null`, `{"worker":"w1","wrker":"x"}`, `{"worker":7}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { fuzzPost(t, h, "/api/v1/work/lease", body) })
}

func FuzzWorkComplete(f *testing.F) {
	h := fuzzHandler(f)
	for _, s := range []string{
		`{"lease":"l1"}`, `{"lease":"l1","error":"boom"}`, `{"lease":""}`,
		`{"lease":"l1","eror":"boom"}`, `null`, ``, `{"lease":["l1"]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { fuzzPost(t, h, "/api/v1/work/complete", body) })
}

// TestWorkBodiesRejectUnknownFields: a completion whose error field is
// misspelled is refused, not recorded as a success, and so is a lease
// request with a field the API does not declare.
func TestWorkBodiesRejectUnknownFields(t *testing.T) {
	s, ts := newTestServer(t, nil)
	small := gemvCase(t)
	q, err := harness.New().NewWorkQueue([]harness.RunKey{{Workload: "GEMV", Case: small, Variant: "TC"}}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkQueue(q)
	cl := client.New(ts.URL).WithPolicy(fastClientPolicy())
	g, err := cl.LeaseWork("w1")
	if err != nil || g.Status != "ok" {
		t.Fatalf("lease = %+v, %v", g, err)
	}
	for path, body := range map[string]string{
		"/api/v1/work/complete": `{"lease":"` + g.Lease + `","eror":"boom"}`,
		"/api/v1/work/lease":    `{"worker":"w2","wroker":"w2"}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %s: HTTP %d, want 400", path, body, resp.StatusCode)
		}
	}
	st, err := cl.WorkStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 0 || st.Leased != 1 {
		t.Fatalf("status after refused bodies = %+v, want the key still leased and none completed", st)
	}
}
