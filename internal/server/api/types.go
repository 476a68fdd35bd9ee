// Package api defines the wire types of the cubie serve control API: the
// typed request/response structs exchanged over HTTP/JSON between
// internal/server (the daemon) and internal/server/client (the Go
// client). Keeping them in their own leaf package — the cleanroom
// controlapi pattern — lets both sides share one vocabulary without an
// import cycle, and gives cmd/docscheck a single place to cross-reference
// against docs/SERVE.md.
//
// Compatibility contract: fields are only ever added, never renamed or
// repurposed; unknown fields are ignored by both sides. The API version is
// carried in the path (/api/v1/...).
package api

import "fmt"

// Error is the error envelope body every non-2xx API response carries:
//
//	{"error": {"code": "saturated", "message": "..."}}
//
// Code is a stable machine-readable identifier (see the Code* constants);
// Message is human-readable detail. Error implements the error interface,
// so clients can return it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`

	// Status is the HTTP status code the envelope arrived with. It is
	// filled by the client, never serialized.
	Status int `json:"-"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// ErrorResponse is the envelope wrapper around Error.
type ErrorResponse struct {
	Error Error `json:"error"`
}

// The stable error codes (the HTTP status they accompany in parentheses).
const (
	CodeBadRequest = "bad_request" // (400) malformed body, unknown field value
	CodeNotFound   = "not_found"   // (404) unknown route, figure, or campaign
	CodeSaturated  = "saturated"   // (429) admission control rejected the request; retry after Retry-After seconds
	CodeDraining   = "draining"    // (503) the daemon is shutting down and admits no new work
	CodeTimeout    = "timeout"     // (504) the request exceeded the per-request timeout; the work keeps running and a retry will join it
	CodeInternal   = "internal"    // (500) the run or render failed
)

// Health is the /healthz and /readyz response body.
type Health struct {
	Status string `json:"status"` // "ok", or "draining" on a not-ready /readyz
}

// FigureInfo describes one servable figure (GET /api/v1/figures).
type FigureInfo struct {
	Name  string `json:"name"`   // endpoint name: GET /api/v1/figures/{name}
	Title string `json:"title"`  // one-line description
	InAll bool   `json:"in_all"` // rendered by `cubie all`
}

// FiguresResponse lists the figure catalog in render order.
type FiguresResponse struct {
	Figures []FigureInfo `json:"figures"`
}

// RunRequest asks for one (workload, case, variant) execution
// (POST /api/v1/runs). Empty Case selects the workload's representative
// case; empty Variant defaults to "TC"; empty GPU defaults to "H200".
type RunRequest struct {
	Workload string `json:"workload"`
	Case     string `json:"case,omitempty"`
	Variant  string `json:"variant,omitempty"`
	GPU      string `json:"gpu,omitempty"`
}

// RunResponse reports one execution: what actually ran (the resolved
// case/variant/GPU) and the simulated outcome, mirroring one `cubie run`
// table row.
type RunResponse struct {
	Workload   string  `json:"workload"`
	Case       string  `json:"case"`
	Variant    string  `json:"variant"`
	GPU        string  `json:"gpu"`
	Work       float64 `json:"work"`       // the workload's work metric count
	Metric     string  `json:"metric"`     // the metric's unit name
	SimTimeS   float64 `json:"sim_time_s"` // simulated kernel time on GPU
	Throughput float64 `json:"throughput"` // Work / SimTimeS / 1e9, Figure 3's unit
	Bottleneck string  `json:"bottleneck"` // binding resource in the model
}

// CampaignRequest starts a sweep/campaign: the named run plan executes in
// the background (POST /api/v1/campaigns). Plan is one of the harness plan
// names: all, figure3, power, table6, figure9, representative, sweep.
type CampaignRequest struct {
	Plan string `json:"plan"`
}

// CampaignStatus is one campaign's progress snapshot — the POST response,
// the GET /api/v1/campaigns/{id} poll body, and the NDJSON stream element
// of GET /api/v1/campaigns/{id}/events.
type CampaignStatus struct {
	ID        string  `json:"id"`
	Plan      string  `json:"plan"`
	State     string  `json:"state"` // "running", "done", "failed"
	Total     int     `json:"total_keys"`
	Completed int     `json:"completed_keys"`
	ElapsedS  float64 `json:"elapsed_s"`
	Error     string  `json:"error,omitempty"` // set when State is "failed"
}

// CampaignsResponse lists every campaign this daemon has accepted, in
// creation order (GET /api/v1/campaigns).
type CampaignsResponse struct {
	Campaigns []CampaignStatus `json:"campaigns"`
}

// WorkKey identifies one run key on the wire — the distributed-campaign
// unit of work. Variant may be the "__reference" pseudo-variant.
type WorkKey struct {
	Workload string `json:"workload"`
	Case     string `json:"case"`
	Variant  string `json:"variant"`
}

// WorkLeaseRequest asks the coordinator for work
// (POST /api/v1/work/lease). Worker is a free-form identity used for
// diagnostics only.
type WorkLeaseRequest struct {
	Worker string `json:"worker,omitempty"`
}

// WorkLeaseResponse is one lease decision. Status "ok" grants Key under
// Lease; "wait" means everything pending is leased out (poll again);
// "done" and "failed" are terminal — the worker should exit, Error
// carrying the failure in the latter case.
type WorkLeaseResponse struct {
	Status string   `json:"status"` // "ok", "wait", "done", "failed"
	Key    *WorkKey `json:"key,omitempty"`
	Lease  string   `json:"lease,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// WorkCompleteRequest reports a leased key's outcome
// (POST /api/v1/work/complete). Empty Error means success.
type WorkCompleteRequest struct {
	Lease string `json:"lease"`
	Error string `json:"error,omitempty"`
}

// WorkCompleteResponse acknowledges a completion: "ok", "requeued"
// (failed, will retry), "failed" (the queue gave up), or "stale" (the
// lease expired and was re-issued; the report was ignored).
type WorkCompleteResponse struct {
	Status string `json:"status"`
}

// WorkStatusResponse snapshots the coordinator's queue
// (GET /api/v1/work).
type WorkStatusResponse struct {
	State     string `json:"state"` // "running", "done", "failed"
	Total     int    `json:"total_keys"`
	Completed int    `json:"completed_keys"`
	Pending   int    `json:"pending_keys"`
	Leased    int    `json:"leased_keys"`
	Reissued  int    `json:"reissued_leases"`
	Error     string `json:"error,omitempty"`
}
