package gateway

// The gateway's face of the incident data lake: ingest accounting and
// the read-only GET /v1/lake/... query surface over the lake's derived
// views. Every endpoint is auth'd like the rest of /v1 and answers 503
// (code "unavailable") when the daemon runs without -lake, mirroring
// how /metrics behaves without a sink.

import (
	"encoding/json"
	"net/http"

	"repro/internal/lake"
	"repro/internal/obs"
)

// lakeAppend ingests one entry with its encoded event stream, fsyncs
// it, and accounts for it.
func (s *Server) lakeAppend(e lake.Entry, events json.RawMessage) error {
	n, err := s.cfg.Lake.AppendEncoded(e, events)
	if err != nil {
		return err
	}
	if s.cfg.Sink != nil {
		reg := s.cfg.Sink.Registry()
		reg.Inc(obs.MLakeEntries, nil, 1)
		reg.Inc(obs.MLakeBytes, nil, float64(n))
	}
	return nil
}

// requireLake refuses lake queries on a lakeless daemon.
func (s *Server) requireLake(w http.ResponseWriter) bool {
	if s.cfg.Lake == nil {
		writeErr(w, http.StatusServiceUnavailable, CodeUnavailable, "", "data lake disabled (no -lake directory)")
		return false
	}
	return true
}

// lakeEntrySummary is the list-shaped view of a lake entry: the header
// fields without the event stream, which only the by-ID fetch carries.
type lakeEntrySummary struct {
	ID         string   `json:"id"`
	Scenario   string   `json:"scenario"`
	Runner     string   `json:"runner,omitempty"`
	Region     string   `json:"region,omitempty"`
	Severity   int      `json:"severity"`
	Mitigated  bool     `json:"mitigated"`
	Escalated  bool     `json:"escalated"`
	TTMMinutes float64  `json:"ttm_minutes"`
	Rounds     int      `json:"rounds"`
	Chain      []string `json:"chain,omitempty"`
	Tags       []string `json:"tags,omitempty"`
}

func summarize(e lake.Entry) lakeEntrySummary {
	return lakeEntrySummary{
		ID: e.ID, Scenario: e.Scenario, Runner: e.Runner, Region: e.Region,
		Severity: e.Severity, Mitigated: e.Mitigated, Escalated: e.Escalated,
		TTMMinutes: e.TTMMinutes, Rounds: e.Rounds,
		Chain: e.Chain, Tags: e.Tags,
	}
}

// handleLakeStats serves GET /v1/lake/stats: totals plus the
// per-scenario-class TTM aggregates.
func (s *Server) handleLakeStats(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireLake(w) {
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Lake.Stats())
}

// handleLakeMitigations serves GET /v1/lake/mitigations: the applied
// mitigation actions ranked by frequency.
func (s *Server) handleLakeMitigations(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireLake(w) {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Mitigations []lake.MitigationCount `json:"mitigations"`
	}{s.cfg.Lake.Mitigations()})
}

// handleLakeTags serves GET /v1/lake/tags: the tag index summary.
func (s *Server) handleLakeTags(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireLake(w) {
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Tags []lake.TagCount `json:"tags"`
	}{s.cfg.Lake.Tags()})
}

// handleLakeByTag serves GET /v1/lake/tags/{tag}: entry summaries in
// ingest order.
func (s *Server) handleLakeByTag(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireLake(w) {
		return
	}
	tag := r.PathValue("tag")
	entries := s.cfg.Lake.ByTag(tag)
	out := struct {
		Tag       string             `json:"tag"`
		Incidents []lakeEntrySummary `json:"incidents"`
	}{Tag: tag, Incidents: make([]lakeEntrySummary, 0, len(entries))}
	for _, e := range entries {
		out.Incidents = append(out.Incidents, summarize(e))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLakeGet serves GET /v1/lake/incidents/{id}: the full entry,
// event stream included.
func (s *Server) handleLakeGet(w http.ResponseWriter, r *http.Request, _ string) {
	if !s.requireLake(w) {
		return
	}
	id := r.PathValue("id")
	e, ok := s.cfg.Lake.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, "", "no lake entry %q", id)
		return
	}
	writeJSON(w, http.StatusOK, e)
}
