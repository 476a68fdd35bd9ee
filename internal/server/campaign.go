package server

// Campaigns: whole sweeps executed in the background. A campaign is one
// named harness run plan (see harness.PlanNames) submitted through
// POST /api/v1/campaigns; it executes on the harness plan executor while
// the client polls GET /api/v1/campaigns/{id} or streams NDJSON progress
// from GET /api/v1/campaigns/{id}/events. Because every key lands in the
// harness singleflight cache, overlapping campaigns (and figure renders)
// share executions instead of repeating them.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/harness"
	"repro/internal/server/api"
)

// campaign is one accepted plan execution.
type campaign struct {
	id    string
	plan  string
	keys  []harness.RunKey
	start time.Time

	done    chan struct{} // closed when Execute returns
	err     error         // set before done closes
	elapsed float64       // frozen wall-clock seconds, set before done closes
}

// status snapshots a campaign for the wire. Progress is read from the
// harness singleflight cache, so it advances even while Execute is still
// scheduling — and reflects executions a concurrent figure render
// contributed.
func (s *Server) status(c *campaign) api.CampaignStatus {
	st := api.CampaignStatus{
		ID:        c.id,
		Plan:      c.plan,
		State:     "running",
		Total:     len(dedupe(c.keys)),
		Completed: s.h.Progress(dedupe(c.keys)),
		ElapsedS:  time.Since(c.start).Seconds(),
	}
	select {
	case <-c.done:
		st.ElapsedS = c.elapsed
		if c.err != nil {
			st.State = "failed"
			st.Error = c.err.Error()
		} else {
			st.State = "done"
		}
	default:
	}
	return st
}

// dedupe drops repeated keys, preserving first-seen order (plans may list
// a key for several experiments; progress counts executions, not wishes).
func dedupe(keys []harness.RunKey) []harness.RunKey {
	seen := make(map[harness.RunKey]bool, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	s.campMu.Lock()
	list := append([]*campaign(nil), s.campaigns...)
	s.campMu.Unlock()
	out := api.CampaignsResponse{Campaigns: []api.CampaignStatus{}}
	for _, c := range list {
		out.Campaigns = append(out.Campaigns, s.status(c))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCampaignStart(w http.ResponseWriter, r *http.Request) {
	var req api.CampaignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decode request: %v", err)
		return
	}
	keys, err := s.h.PlanByName(req.Plan)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}

	// A campaign occupies one admission slot for its whole execution: it
	// saturates the harness worker pool internally, so admitting campaigns
	// beyond the slot bound would only stack load the machine cannot absorb.
	release, ref := s.admit()
	if ref != nil {
		s.refuse(w, ref)
		return
	}

	s.campMu.Lock()
	s.campSeq++
	c := &campaign{
		id:    fmt.Sprintf("c%d", s.campSeq),
		plan:  req.Plan,
		keys:  keys,
		start: time.Now(),
		done:  make(chan struct{}),
	}
	s.campaigns = append(s.campaigns, c)
	s.campMu.Unlock()
	metCampaignsStarted.Inc()

	s.work.Add(1)
	go func() {
		defer s.work.Done()
		defer release()
		c.err = s.h.Execute(c.keys)
		c.elapsed = time.Since(c.start).Seconds()
		close(c.done)
	}()

	writeJSON(w, http.StatusAccepted, s.status(c))
}

// campaignByID resolves {id}; on miss it writes the 404 envelope and
// returns nil.
func (s *Server) campaignByID(w http.ResponseWriter, r *http.Request) *campaign {
	id := r.PathValue("id")
	s.campMu.Lock()
	defer s.campMu.Unlock()
	for _, c := range s.campaigns {
		if c.id == id {
			return c
		}
	}
	writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown campaign %q", id)
	return nil
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	c := s.campaignByID(w, r)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.status(c))
}

// handleCampaignEvents streams campaign progress as NDJSON: one
// CampaignStatus JSON object per line, a new line whenever progress
// changes (checked every 200ms), a final line when the campaign finishes,
// then EOF. `curl -N` renders it as a live ticker.
func (s *Server) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaignByID(w, r)
	if c == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	emit := func(st api.CampaignStatus) {
		_ = enc.Encode(st)
		if flusher != nil {
			flusher.Flush()
		}
	}
	last := s.status(c)
	emit(last)

	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.done:
			emit(s.status(c))
			return
		case <-r.Context().Done():
			return
		case <-tick.C:
			st := s.status(c)
			if st.Completed != last.Completed || st.State != last.State {
				last = st
				emit(st)
			}
		}
	}
}
