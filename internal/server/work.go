package server

// The distributed-campaign surface: the content-addressed cache store
// (GET/PUT /api/v1/cache/{key}) that makes any daemon a runcache remote
// tier for its peers, and the work lease/steal queue
// (POST /api/v1/work/lease, POST /api/v1/work/complete, GET /api/v1/work)
// a coordinator serves its workers. None of these take an admission slot:
// cache traffic is plain disk I/O, and lease bookkeeping is a mutex hop —
// the expensive part (executing the leased key) happens in the *worker's*
// process, not here.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/runcache"
	"repro/internal/server/api"
)

// Cache-store metrics (see docs/OBSERVABILITY.md).
var (
	metStoreServed = metrics.NewCounter("cubie_server_cache_served_total",
		"Cache-store entries served to peers (GET hits).")
	metStoreMisses = metrics.NewCounter("cubie_server_cache_miss_total",
		"Cache-store GETs for entries this daemon does not hold (404).")
	metStoreStored = metrics.NewCounter("cubie_server_cache_stored_total",
		"Cache-store entries accepted from peers (PUT).")
	metStoreRejected = metrics.NewCounter("cubie_server_cache_rejected_total",
		"Cache-store PUTs refused (invalid name, not an envelope, or address mismatch).")
)

// maxStoreEntryBytes bounds one inbound PUT body (matches the remote
// tier's own read bound).
const maxStoreEntryBytes = 1 << 30

// SetWorkQueue attaches the lease queue this daemon coordinates. Without
// one, the /api/v1/work endpoints answer 404 — a plain `cubie serve`
// daemon is a cache server but not a coordinator.
func (s *Server) SetWorkQueue(q *harness.WorkQueue) {
	s.queueMu.Lock()
	s.queue = q
	s.queueMu.Unlock()
}

func (s *Server) workQueue() *harness.WorkQueue {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	return s.queue
}

// store returns the runcache behind the cache endpoints (nil when the
// harness runs cacheless — CUBIE_CACHE=off).
func (s *Server) store() *runcache.Cache {
	return s.h.RunCache()
}

// handleCacheGet serves one entry's raw bytes by content address. The
// daemon does not verify the entry against its own fingerprint — a store
// serves every code version its peers run; the reader verifies.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	rc := s.store()
	if rc == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			"this daemon runs without a cache (CUBIE_CACHE=off) and stores no entries")
		return
	}
	name := r.PathValue("key")
	if !runcache.ValidEntryName(name) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			"%q is not a content-addressed entry name", name)
		return
	}
	data, err := rc.ReadEntry(name)
	if err != nil {
		if os.IsNotExist(err) {
			metStoreMisses.Inc()
			writeError(w, http.StatusNotFound, api.CodeNotFound, "no entry %s", name)
			return
		}
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "read %s: %v", name, err)
		return
	}
	metStoreServed.Inc()
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleCachePut accepts one entry by content address. The store
// re-derives the address from the envelope body and refuses a mismatch
// (runcache.WriteEntry), so peers cannot park bytes under foreign names;
// beyond that the entry is opaque — readers verify payloads.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	rc := s.store()
	if rc == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			"this daemon runs without a cache (CUBIE_CACHE=off) and accepts no entries")
		return
	}
	name := r.PathValue("key")
	data, err := io.ReadAll(io.LimitReader(r.Body, maxStoreEntryBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "read body: %v", err)
		return
	}
	if err := rc.WriteEntry(name, data); err != nil {
		if runcache.IsBadEntry(err) {
			metStoreRejected.Inc()
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "store %s: %v", name, err)
		return
	}
	metStoreStored.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleWorkLease grants one run key to a polling worker.
func (s *Server) handleWorkLease(w http.ResponseWriter, r *http.Request) {
	q := s.workQueue()
	if q == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			"this daemon coordinates no campaign (start one with `cubie dist`)")
		return
	}
	var req api.WorkLeaseRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decode request: %v", err)
		return
	}
	g := q.Lease(req.Worker)
	resp := api.WorkLeaseResponse{Status: g.State, Lease: g.Lease, Error: g.Err}
	if g.State == harness.LeaseGranted {
		resp.Key = &api.WorkKey{
			Workload: g.Key.Workload,
			Case:     g.Key.Case,
			Variant:  string(g.Key.Variant),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleWorkComplete records a leased key's outcome.
func (s *Server) handleWorkComplete(w http.ResponseWriter, r *http.Request) {
	q := s.workQueue()
	if q == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			"this daemon coordinates no campaign")
		return
	}
	var req api.WorkCompleteRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decode request: %v", err)
		return
	}
	if req.Lease == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "lease must not be empty")
		return
	}
	writeJSON(w, http.StatusOK, api.WorkCompleteResponse{Status: q.Complete(req.Lease, req.Error)})
}

// handleWorkStatus snapshots the coordinator's queue.
func (s *Server) handleWorkStatus(w http.ResponseWriter, r *http.Request) {
	q := s.workQueue()
	if q == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound,
			"this daemon coordinates no campaign")
		return
	}
	st := q.Status()
	writeJSON(w, http.StatusOK, api.WorkStatusResponse{
		State:     st.State,
		Total:     st.Total,
		Completed: st.Completed,
		Pending:   st.Pending,
		Leased:    st.Leased,
		Reissued:  st.Reissued,
		Error:     st.Err,
	})
}
