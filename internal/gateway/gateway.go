// Package gateway is the incident gateway: the versioned HTTP/JSON
// ingress that turns this repository from a pile of batch CLIs into a
// long-lived service. Callers authenticate with per-caller API keys,
// POST incident events with enumerated severity/status, and the
// gateway normalizes each payload into internal/incident types (by
// generating the named scenario deterministically from a per-incident
// seed), executes the responder session, and feeds the arrival into
// the fleet scheduler's live arrival stream. Session events stream
// back out over SSE from the obs sink, and the metrics registry is
// scraped at GET /metrics in Prometheus text format.
//
// The design follows the gateway-first ingress pattern: one
// authoritative, versioned entry point validates identity, enforces
// enumerations, and owns the canonical record, while callers keep
// their internal tools. Endpoints:
//
//	POST   /v1/incidents        create (201; errors 400/401/409/422)
//	GET    /v1/incidents        list, newest-last, cursor-paginated
//	GET    /v1/incidents/{id}   fetch record + live fleet state
//	PATCH  /v1/incidents/{id}   update reported status/severity/note
//	GET    /v1/events           Server-Sent Events from the obs sink
//	GET    /metrics             Prometheus text exposition (no auth)
//	POST   /v1/sim/advance      advance the sim clock (sim mode only)
//	POST   /v1/sim/drain        drain the scheduler, return the summary
//	GET    /v1/lake/stats       data lake: per-scenario-class TTM aggregates
//	GET    /v1/lake/mitigations data lake: mitigation actions by frequency
//	GET    /v1/lake/tags        data lake: tag index summary
//	GET    /v1/lake/tags/{tag}  data lake: incident summaries carrying a tag
//	GET    /v1/lake/incidents/{id}  data lake: full entry, event stream included
//
// Multi-region: when the configured scheduler is sharded
// (fleet.NewSharded), POST /v1/incidents accepts an optional "region"
// homing the incident in one of the configured fleet regions (absent
// or empty means the default region; an unconfigured region is a
// field-blamed 422). The region comes back on every record view, and
// a stolen incident additionally reports "handled_by": the region
// whose responder pool actually worked it.
//
// Errors: every non-2xx response carries one uniform envelope,
//
//	{"error": {"code": "...", "field": "...", "message": "..."}}
//
// where code is a stable machine-readable slug (unauthorized,
// invalid_payload, validation, not_found, conflict, payload_too_large,
// rate_limited, overloaded, draining, not_ready, unavailable,
// internal), field blames the offending payload field when there is
// one (422s and the body-cap 413), and message is human-readable and
// NOT part of the compatibility contract.
//
// List pagination: GET /v1/incidents returns records sorted by
// (opened_at_minutes, id) ascending — the fleet admission order — in
// pages of limit (default 50, max 200). A page that was cut short
// carries next_cursor: an opaque token naming the last record
// returned; pass it back as ?cursor= to resume. Filters region=,
// status=, severity= (sevN) conjoin. The cursor is stable under
// concurrent inserts: new arrivals sort after the cursor position or
// before it, never into an already-returned page twice.
//
// Determinism: with a SimClock, every response body is a pure function
// of (seed, accepted payloads, advance calls) — HTTP interleaving and
// client concurrency never change a byte. See clock.go for the bridge.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/lake"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// DeriveSeed maps (base seed, incident ID) to the incident's private
// session seed: FNV-1a over the ID mixed through a splitmix64
// finalizer. A pure function of its inputs — independent of submission
// order, worker count, and wall time — so a given incident ID always
// replays the same session.
func DeriveSeed(base int64, id string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	z := uint64(base) + h*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Config assembles a gateway server.
type Config struct {
	// Keys maps API key -> caller name (the RFC-style "proof of
	// contributor": caller authority via per-caller key). Empty map
	// means every request is rejected 401.
	Keys map[string]string
	// Clock is the simulated-time source (see clock.go).
	Clock Clock
	// Sched is the fleet scheduler arrivals feed into (a
	// *fleet.ShardedScheduler, one region for a single cell). The
	// gateway validates POST regions against Sched.Regions().
	Sched fleet.Scheduler
	// Runner executes each admitted incident's responder session, in
	// the submitting handler's goroutine.
	Runner harness.Runner
	// Seed is the base seed per-incident session seeds derive from.
	Seed int64
	// Sink, when non-nil, powers GET /metrics and GET /v1/events: every
	// session's events are absorbed into its registry and pushed to the
	// stream's subscribers. The gateway never reads the sink's event
	// log, so a daemon sink built by obs.NewSink keeps none; the lake is
	// the durable home for event streams.
	Sink *obs.Sink
	// SimControl exposes POST /v1/sim/{advance,drain}. Enable it only
	// with an AdvanceClock (tests, load harnesses); in wall-clock mode
	// the scheduler watermark follows the clock on every request
	// instead.
	SimControl bool

	// Journal, when non-nil, makes every accepted/patched/resolved/shed
	// transition durable: the gateway appends (and fsyncs) the record
	// before any 2xx is returned, and Recover replays it on boot. Nil
	// keeps the PR 6 in-memory behavior byte-identical.
	Journal *journal.Journal
	// Lake, when non-nil, ingests every completed session — postmortem
	// summary, confirmed chain, proposed hypothesis edges, event stream
	// — into the append-only incident data lake (fsync'd before the 201
	// leaves) and serves the GET /v1/lake/... query endpoints.
	Lake *lake.Lake
	// RatePerMin enables per-caller token-bucket rate limiting on the
	// mutating endpoints: sustained requests per simulated minute, with
	// bursts up to Burst. Over-limit requests get 429 + Retry-After.
	// 0 disables limiting.
	RatePerMin float64
	// Burst is the token bucket's capacity (minimum 1 when limiting).
	Burst float64
	// ShedDepth sheds POST /v1/incidents with 503 + Retry-After once
	// pending+queued incidents reach it — load is refused before the
	// expensive session runs, not after. 0 disables shedding.
	ShedDepth int
	// MaxBody caps request bodies (bytes); overflow maps to a
	// body-blamed 413. 0 means the 1 MiB default.
	MaxBody int64
}

// Record is the gateway's canonical incident record: the normalized
// caller-reported fields plus the fleet scheduler's live view.
type Record struct {
	ID         string   `json:"id"`
	Scenario   string   `json:"scenario"`
	Region     string   `json:"region"`
	Title      string   `json:"title"`
	Summary    string   `json:"summary,omitempty"`
	Service    string   `json:"service,omitempty"`
	Severity   Severity `json:"severity"`
	Status     string   `json:"status"`
	ReportedBy string   `json:"reported_by"`
	Notes      []string `json:"notes,omitempty"`

	OpenedAtMinutes float64 `json:"opened_at_minutes"`

	// Fleet view, filled in as the scheduler works the arrival.
	FleetState string `json:"fleet_state"`
	// HandledBy is the region whose responder pool is executing (or
	// executed) the incident, set only when work stealing moved it off
	// its home region.
	HandledBy         string   `json:"handled_by,omitempty"`
	Responder         *int     `json:"responder,omitempty"`
	QueueMinutes      *float64 `json:"queue_minutes,omitempty"`
	ResolutionMinutes *float64 `json:"resolution_minutes,omitempty"`
	Mitigated         *bool    `json:"mitigated,omitempty"`
	Escalated         *bool    `json:"escalated,omitempty"`
}

// DrainSummary is POST /v1/sim/drain's response: the fleet report in
// wire form. E15 reads its ladder rows from this, through the socket.
type DrainSummary struct {
	Incidents            int     `json:"incidents"`
	Admitted             int     `json:"admitted"`
	Shed                 int     `json:"shed"`
	MeanQueueMinutes     float64 `json:"mean_queue_minutes"`
	P95QueueMinutes      float64 `json:"p95_queue_minutes"`
	MeanResolutionMin    float64 `json:"mean_resolution_minutes"`
	P50ResolutionMinutes float64 `json:"p50_resolution_minutes"`
	P95ResolutionMinutes float64 `json:"p95_resolution_minutes"`
	P99ResolutionMinutes float64 `json:"p99_resolution_minutes"`
	MitigatedRate        float64 `json:"mitigated_rate"`
	Utilization          float64 `json:"utilization"`
	PeakQueueDepth       int     `json:"peak_queue_depth"`
	DrainMinutes         float64 `json:"drain_minutes"`

	// Total cross-region steals (omitted when zero) and the per-region
	// breakdown, in sorted region order; a single cell reports its one
	// region. Both are omitted inside a RegionDrainSummary.
	Stolen  int                  `json:"stolen,omitempty"`
	Regions []RegionDrainSummary `json:"regions,omitempty"`
}

// RegionDrainSummary is one region's slice of a sharded drain: the
// same fleet report fields, plus the steal flow in and out.
type RegionDrainSummary struct {
	Region string `json:"region"`
	DrainSummary
	StolenIn  int `json:"stolen_in"`
	StolenOut int `json:"stolen_out"`
}

// drainSummary converts a fleet report to wire form.
func drainSummary(rep *fleet.Report) DrainSummary {
	return DrainSummary{
		Incidents:            len(rep.Outcomes),
		Admitted:             rep.Admitted,
		Shed:                 rep.Shed,
		MeanQueueMinutes:     rep.MeanQueue.Minutes(),
		P95QueueMinutes:      rep.P95Queue.Minutes(),
		MeanResolutionMin:    rep.MeanResolution.Minutes(),
		P50ResolutionMinutes: rep.P50Resolution.Minutes(),
		P95ResolutionMinutes: rep.P95Resolution.Minutes(),
		P99ResolutionMinutes: rep.P99Resolution.Minutes(),
		MitigatedRate:        rep.MitigatedRate,
		Utilization:          rep.Utilization,
		PeakQueueDepth:       rep.PeakQueueDepth,
		DrainMinutes:         rep.Drain.Minutes(),
	}
}

// NewShardedDrainSummary converts a sharded fleet report to wire form:
// the fleet-wide totals plus one RegionDrainSummary per region.
func NewShardedDrainSummary(rep *fleet.ShardedReport) DrainSummary {
	out := drainSummary(rep.Total)
	out.Stolen = rep.Stolen
	for _, rr := range rep.Regions {
		out.Regions = append(out.Regions, RegionDrainSummary{
			Region:       rr.Region,
			DrainSummary: drainSummary(rr.Report),
			StolenIn:     rr.StolenIn,
			StolenOut:    rr.StolenOut,
		})
	}
	return out
}

// Server is the gateway HTTP server state.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	limit *limiter

	// regions is the configured fleet region set (from Sched.Regions()),
	// the membership check behind POST's region validation.
	regions map[string]bool

	// ready gates /readyz: true once the journal (if any) has been
	// replayed, false again when Shutdown begins.
	ready atomic.Bool
	done  chan struct{} // closed by Shutdown; ends SSE streams
	once  sync.Once

	mu      sync.Mutex
	records map[string]*Record
	seq     int
}

// NewServer builds the gateway over its collaborators. With a Journal
// configured the server boots not-ready: call Recover (even on an
// empty replay) before serving traffic.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		records: map[string]*Record{},
		done:    make(chan struct{}),
		regions: map[string]bool{},
	}
	if cfg.Sched != nil {
		for _, r := range cfg.Sched.Regions() {
			s.regions[r] = true
		}
	}
	if cfg.RatePerMin > 0 {
		s.limit = newLimiter(cfg.RatePerMin, cfg.Burst)
	}
	s.ready.Store(cfg.Journal == nil)
	if cfg.Journal != nil && cfg.Sched != nil {
		// Admission-control sheds are fleet decisions, not HTTP ones:
		// journal them from the scheduler's hook so the durable log
		// carries the full lifecycle.
		cfg.Sched.SetOnShed(func(id string, at time.Duration) {
			_ = s.journalAppend(journal.Record{
				Kind: journal.KindShed, ID: id, AtMinutes: at.Minutes(),
			})
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/incidents", s.auth(s.handleCreate))
	mux.HandleFunc("GET /v1/incidents", s.auth(s.handleList))
	mux.HandleFunc("GET /v1/incidents/{id}", s.auth(s.handleGet))
	mux.HandleFunc("PATCH /v1/incidents/{id}", s.auth(s.handleUpdate))
	mux.HandleFunc("GET /v1/events", s.auth(s.handleEvents))
	mux.HandleFunc("GET /v1/lake/stats", s.auth(s.handleLakeStats))
	mux.HandleFunc("GET /v1/lake/mitigations", s.auth(s.handleLakeMitigations))
	mux.HandleFunc("GET /v1/lake/tags", s.auth(s.handleLakeTags))
	mux.HandleFunc("GET /v1/lake/tags/{tag}", s.auth(s.handleLakeByTag))
	mux.HandleFunc("GET /v1/lake/incidents/{id}", s.auth(s.handleLakeGet))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if cfg.SimControl {
		mux.HandleFunc("POST /v1/sim/advance", s.auth(s.handleAdvance))
		mux.HandleFunc("POST /v1/sim/drain", s.auth(s.handleDrain))
	}
	s.mux = mux
	return s
}

// Shutdown begins a graceful stop: /readyz flips not-ready (load
// balancers stop sending) and every open SSE stream ends, so the HTTP
// drain is never held hostage by an idle subscriber. Idempotent.
func (s *Server) Shutdown() {
	s.ready.Store(false)
	s.once.Do(func() { close(s.done) })
}

// Handler returns the gateway's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// defaultMaxBody caps request bodies well above the payload field caps.
const defaultMaxBody = 1 << 20

func (s *Server) maxBody() int64 {
	if s.cfg.MaxBody > 0 {
		return s.cfg.MaxBody
	}
	return defaultMaxBody
}

// writeJSON writes v with a status code. Encoding is deterministic:
// struct fields in declaration order, HTML escaping off.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Stable machine-readable error codes (the envelope's "code" field).
// These — not the messages — are the compatibility contract.
const (
	CodeUnauthorized    = "unauthorized"      // 401: missing or unknown API key
	CodeInvalidPayload  = "invalid_payload"   // 400: body is not valid strict JSON
	CodeValidation      = "validation"        // 422: schema violation, field set
	CodeNotFound        = "not_found"         // 404: no such incident
	CodeConflict        = "conflict"          // 409: duplicate/stale/terminal
	CodePayloadTooLarge = "payload_too_large" // 413: body over the byte cap
	CodeRateLimited     = "rate_limited"      // 429: caller over its token bucket
	CodeOverloaded      = "overloaded"        // 503: queue-depth load shedding
	CodeDraining        = "draining"          // 503: scheduler drained/stopping
	CodeNotReady        = "not_ready"         // 503: journal replay not finished
	CodeUnavailable     = "unavailable"       // 503: feature disabled (no sink)
	CodeInternal        = "internal"          // 500: journal append failed, etc.
)

// ErrorDetail is the body of the uniform error envelope.
type ErrorDetail struct {
	// Code is the stable machine-readable error class.
	Code string `json:"code"`
	// Field blames a payload field or query parameter, when one is at
	// fault (validation 422s and the body-cap 413).
	Field string `json:"field,omitempty"`
	// Message is human-readable context; not a compatibility surface.
	Message string `json:"message"`
}

// ErrorBody is the envelope every non-2xx response carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, code, field, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{
		Code: code, Field: field, Message: fmt.Sprintf(format, args...),
	}})
}

// auth wraps a handler with per-caller API-key identity: the caller
// name lands in the request via the X-Caller context-free param (we
// pass it explicitly instead).
func (s *Server) auth(fn func(w http.ResponseWriter, r *http.Request, caller string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("X-API-Key")
		if key == "" {
			writeErr(w, http.StatusUnauthorized, CodeUnauthorized, "", "missing X-API-Key header")
			return
		}
		caller, ok := s.cfg.Keys[key]
		if !ok {
			writeErr(w, http.StatusUnauthorized, CodeUnauthorized, "", "unknown API key")
			return
		}
		fn(w, r, caller)
	}
}

// stepWall follows the wall clock: outside sim-control mode the
// scheduler watermark advances to now on every request, so incident
// states progress with real time.
func (s *Server) stepWall() {
	if !s.cfg.SimControl {
		s.cfg.Sched.StepTo(s.cfg.Clock.Now())
	}
}

// readBody reads the request body under the gateway's byte cap.
// Overflow is a schema-shaped refusal, not a transport error: a
// body-blamed 413 telling the caller the limit, so oversized payloads
// are distinguishable from truncated or malformed ones (400).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody()))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "body",
				"exceeds the %d-byte request cap", mbe.Limit)
			return nil, false
		}
		writeErr(w, http.StatusBadRequest, CodeInvalidPayload, "", "reading body: %v", err)
		return nil, false
	}
	return body, true
}

// decodeErr maps codec errors onto status codes: schema violations are
// 422, malformed JSON is 400.
func decodeErr(w http.ResponseWriter, err error) {
	var fe *FieldError
	if ok := asFieldError(err, &fe); ok {
		writeErr(w, http.StatusUnprocessableEntity, CodeValidation, fe.Field, "%s", fe.Msg)
		return
	}
	writeErr(w, http.StatusBadRequest, CodeInvalidPayload, "", "invalid payload: %v", err)
}

func asFieldError(err error, out **FieldError) bool {
	if fe, ok := err.(*FieldError); ok {
		*out = fe
		return true
	}
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request, caller string) {
	s.stepWall()
	if !s.throttle(w, caller) {
		return
	}
	if s.cfg.ShedDepth > 0 {
		if pending, queued := s.cfg.Sched.Depth(); pending+queued >= s.cfg.ShedDepth {
			// Queue-depth load shedding: refuse BEFORE the expensive
			// session runs — overload protection that costs a depth read,
			// not a responder.
			w.Header().Set("Retry-After", "1")
			s.count(obs.MGwShed, nil)
			writeErr(w, http.StatusServiceUnavailable, CodeOverloaded, "",
				"gateway overloaded: %d incidents in flight (shed depth %d)",
				pending+queued, s.cfg.ShedDepth)
			return
		}
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeCreate(body)
	if err != nil {
		decodeErr(w, err)
		return
	}

	// Home the incident: absent/empty region means the default region;
	// anything else must name a configured fleet region.
	region := req.Region
	if region == "" {
		region = fleet.DefaultRegion
	}
	if !s.regions[region] {
		writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "region",
			"unknown region %q: configured regions are %v", region, s.cfg.Sched.Regions())
		return
	}

	// Reserve the ID before running the (expensive) session so two
	// concurrent POSTs with the same ID cannot both run one.
	s.mu.Lock()
	id := req.ID
	if id == "" {
		s.seq++
		id = fmt.Sprintf("inc-%04d", s.seq)
	}
	if _, dup := s.records[id]; dup {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, CodeConflict, "", "incident %q already exists", id)
		return
	}
	s.records[id] = nil // reservation
	s.mu.Unlock()

	openedAt := req.OpenedAt(s.cfg.Clock.Now())

	// Normalize: generate the named scenario from the incident's
	// derived seed — world, alerts, ground truth — then overlay the
	// caller's reported fields.
	seed := DeriveSeed(s.cfg.Seed, id)
	in := scenarios.ByName(req.Scenario).Build(randsrc.New(seed))
	if req.Severity != nil {
		in.Incident.Severity = int(*req.Severity)
	}
	// The gateway ID replaces the generator's (globally countered) one
	// so session events are a pure function of (seed, id) — never of
	// how many incidents other handlers built first. OpenedAt stays on
	// the session's own timeline: TTM is measured inside the session
	// world; the fleet arrival time lives in the LiveArrival alone,
	// exactly as Simulate keeps them separate.
	in.Incident.ID = id

	// Run the responder session here, in the handler's goroutine: live
	// mode's parallelism is exactly the server's request concurrency.
	// The lake wants the event stream even when no sink collects it, so
	// a configured lake also forces the observed path. The lake entry,
	// its event stream encoded once, is built before the scheduler
	// assumes ownership of the recorder.
	var rec *obs.Recorder
	var recorded []obs.Event
	var res harness.Result
	if or, observed := s.cfg.Runner.(harness.ObservedRunner); observed && (s.cfg.Sink != nil || s.cfg.Lake != nil) {
		rec = obs.AcquireRecorder("gw/" + id)
		res = or.RunObserved(in, seed, rec)
		recorded = rec.Events
	} else {
		res = s.cfg.Runner.Run(in, seed)
	}
	var entry lake.Entry
	var events json.RawMessage
	if s.cfg.Lake != nil {
		entry = lake.NewEntry(id, s.cfg.Runner.Name(), in, res, seed, recorded)
		entry.Region = region
		events, err = lake.EncodeEvents(recorded)
	}
	if rec != nil && (s.cfg.Sink == nil || err != nil) {
		rec.Release()
		rec = nil
	}
	if err != nil {
		s.mu.Lock()
		delete(s.records, id) // release the reservation
		s.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, CodeInternal, "", "%v", err)
		return
	}

	err = s.cfg.Sched.Offer(fleet.LiveArrival{
		ID: id, At: openedAt, Scenario: req.Scenario, Region: region,
		Severity: in.Incident.Severity, Result: res, Events: rec,
	})
	if err != nil {
		if rec != nil {
			rec.Release()
		}
		s.mu.Lock()
		delete(s.records, id) // release the reservation
		s.mu.Unlock()
		switch {
		case errorIs(err, fleet.ErrDrained):
			writeErr(w, http.StatusServiceUnavailable, CodeDraining, "", "gateway draining: %v", err)
		default:
			writeErr(w, http.StatusConflict, CodeConflict, "", "%v", err)
		}
		return
	}

	// Lake ingest precedes the record store and journal: when the 201
	// leaves, the postmortem — chain, proposed edges, event stream — is
	// already fsync'd in the data lake. On failure the reservation is
	// kept so a retry conflicts loudly instead of double-scheduling.
	if s.cfg.Lake != nil {
		if err := s.lakeAppend(entry, events); err != nil {
			writeErr(w, http.StatusInternalServerError, CodeInternal, "", "lake append: %v", err)
			return
		}
	}

	record := &Record{
		ID: id, Scenario: req.Scenario, Region: region,
		Title: req.Title, Summary: req.Summary, Service: req.Service,
		Severity: Severity(in.Incident.Severity), Status: "open",
		ReportedBy:      caller,
		OpenedAtMinutes: openedAt.Minutes(),
	}
	if record.Title == "" {
		record.Title = in.Incident.Title
	}
	// Store and journal under one lock so the journal's record order
	// matches the order updates became visible — what Recover replays.
	// The fsync completes before the 201 leaves: an acknowledged
	// incident is a durable promise.
	s.mu.Lock()
	s.records[id] = record
	if s.cfg.Journal != nil {
		sev := in.Incident.Severity
		if err := s.journalAppend(journal.Record{
			Kind: journal.KindAccepted, ID: id, AtMinutes: s.cfg.Clock.Now().Minutes(),
			Scenario: req.Scenario, Severity: &sev,
			Title: record.Title, Summary: record.Summary, Service: record.Service,
			ReportedBy: caller, OpenedAtMinutes: openedAt.Minutes(),
			Region: region,
		}); err != nil {
			// The arrival is scheduled but not durable: refuse the ack
			// and keep the record so a retry conflicts loudly (409)
			// instead of double-scheduling.
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, CodeInternal, "", "journal append: %v", err)
			return
		}
	}
	out := record.snapshot()
	s.mu.Unlock()

	s.stepWall()
	writeJSON(w, http.StatusCreated, s.view(out))
}

func errorIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, _ string) {
	s.stepWall()
	id := r.PathValue("id")
	s.mu.Lock()
	record := s.records[id]
	var out Record
	if record != nil {
		out = record.snapshot()
	}
	s.mu.Unlock()
	if record == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "", "no incident %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.view(out))
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, caller string) {
	s.stepWall()
	if !s.throttle(w, caller) {
		return
	}
	id := r.PathValue("id")
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeUpdate(body)
	if err != nil {
		decodeErr(w, err)
		return
	}
	s.mu.Lock()
	record := s.records[id]
	if record == nil {
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, CodeNotFound, "", "no incident %q", id)
		return
	}
	if record.Status == "resolved" && req.Status != "" && req.Status != "resolved" {
		s.mu.Unlock()
		writeErr(w, http.StatusConflict, CodeConflict, "", "incident %q is resolved (terminal)", id)
		return
	}
	if req.Status != "" {
		record.Status = req.Status
	}
	if req.Severity != nil {
		record.Severity = *req.Severity
	}
	note := ""
	if req.Note != "" {
		note = fmt.Sprintf("%s: %s", caller, req.Note)
		record.Notes = append(record.Notes, note)
	}
	if s.cfg.Journal != nil {
		kind := journal.KindPatched
		if record.Status == "resolved" {
			kind = journal.KindResolved
		}
		jr := journal.Record{
			Kind: kind, ID: id, AtMinutes: s.cfg.Clock.Now().Minutes(),
			Status: req.Status, Note: note,
		}
		if req.Severity != nil {
			sev := int(*req.Severity)
			jr.Severity = &sev
		}
		if err := s.journalAppend(jr); err != nil {
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, CodeInternal, "", "journal append: %v", err)
			return
		}
	}
	out := record.snapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.view(out))
}

// snapshot copies a record, Notes included, for rendering after s.mu
// is released. Call it with s.mu held: handleUpdate mutates Status,
// Severity and Notes in place under that lock.
func (r *Record) snapshot() Record {
	out := *r
	out.Notes = slices.Clone(r.Notes)
	return out
}

// view overlays the scheduler's current fleet state on a record
// snapshot. It locks only the scheduler, never s.mu.
func (s *Server) view(out Record) Record {
	st, ok := s.cfg.Sched.Lookup(out.ID)
	if !ok {
		out.FleetState = string(fleet.StatePending)
		return out
	}
	out.FleetState = string(st.State)
	out.HandledBy = st.HandledBy
	o := st.Outcome
	switch st.State {
	case fleet.StateShed:
		out.ResolutionMinutes = ptr(o.Resolution.Minutes())
		out.Escalated = ptr(true)
	case fleet.StateActive:
		out.Responder = ptr(o.Responder)
		out.QueueMinutes = ptr(o.Queue.Minutes())
	case fleet.StateResolved:
		out.Responder = ptr(o.Responder)
		out.QueueMinutes = ptr(o.Queue.Minutes())
		out.ResolutionMinutes = ptr(o.Resolution.Minutes())
		out.Mitigated = ptr(o.Result.Mitigated)
		out.Escalated = ptr(o.Result.Escalated)
	}
	return out
}

func ptr[T any](v T) *T { return &v }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Sink == nil {
		writeErr(w, http.StatusServiceUnavailable, CodeUnavailable, "", "observability disabled (no sink)")
		return
	}
	if !s.cfg.SimControl {
		s.cfg.Sched.StepTo(s.cfg.Clock.Now())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.cfg.Sink.WriteMetrics(w)
}

// handleHealthz is pure liveness: the process is up and serving. No
// auth — probes and load balancers have no API keys.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: the journal (if any) has been replayed and
// the scheduler is accepting arrivals. Not-ready during boot recovery
// and again once shutdown/drain begins.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load():
		writeErr(w, http.StatusServiceUnavailable, CodeNotReady, "", "not ready: journal not replayed")
	case s.cfg.Sched != nil && s.cfg.Sched.Drained():
		writeErr(w, http.StatusServiceUnavailable, CodeNotReady, "", "not ready: scheduler drained")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}
}

// count bumps a gateway counter when observability is on.
func (s *Server) count(name string, labels obs.Labels) {
	if s.cfg.Sink != nil {
		s.cfg.Sink.Registry().Inc(name, labels, 1)
	}
}

// journalAppend appends one durable record and accounts for it.
func (s *Server) journalAppend(r journal.Record) error {
	n, err := s.cfg.Journal.Append(r)
	if err != nil {
		return err
	}
	if s.cfg.Sink != nil {
		reg := s.cfg.Sink.Registry()
		reg.Inc(obs.MJournalRecords, nil, 1)
		reg.Inc(obs.MJournalBytes, nil, float64(n))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sim control (deterministic test/load-harness surface).
// ---------------------------------------------------------------------------

type advanceRequest struct {
	Minutes *float64 `json:"minutes,omitempty"`
	// ToMinutes advances to an absolute simulated time instead.
	ToMinutes *float64 `json:"to_minutes,omitempty"`
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request, _ string) {
	ac, ok := s.cfg.Clock.(AdvanceClock)
	if !ok {
		writeErr(w, http.StatusConflict, CodeConflict, "", "clock is not advanceable (wall-clock mode)")
		return
	}
	body, okb := s.readBody(w, r)
	if !okb {
		return
	}
	var req advanceRequest
	if err := strictDecode(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, CodeInvalidPayload, "", "invalid payload: %v", err)
		return
	}
	var target time.Duration
	switch {
	case req.Minutes != nil && req.ToMinutes != nil:
		writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "minutes", "set minutes or to_minutes, not both")
		return
	case req.Minutes != nil:
		m := *req.Minutes
		if !(m >= 0) || m > maxOpenedAtMinutes {
			writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "minutes", "must be in [0, %g]", float64(maxOpenedAtMinutes))
			return
		}
		target = ac.Now() + time.Duration(m*float64(time.Minute))
	case req.ToMinutes != nil:
		m := *req.ToMinutes
		if !(m >= 0) || m > maxOpenedAtMinutes {
			writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "to_minutes", "must be in [0, %g]", float64(maxOpenedAtMinutes))
			return
		}
		target = time.Duration(m * float64(time.Minute))
	default:
		writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "minutes", "set minutes or to_minutes")
		return
	}
	now := ac.AdvanceTo(target)
	s.cfg.Sched.StepTo(now)
	writeJSON(w, http.StatusOK, map[string]float64{"now_minutes": now.Minutes()})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request, _ string) {
	sum := NewShardedDrainSummary(s.cfg.Sched.DrainSharded())
	if ac, ok := s.cfg.Clock.(AdvanceClock); ok {
		ac.AdvanceTo(s.cfg.Sched.Watermark())
	}
	writeJSON(w, http.StatusOK, sum)
}

// ---------------------------------------------------------------------------
// SSE event stream.
// ---------------------------------------------------------------------------

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, _ string) {
	if s.cfg.Sink == nil {
		writeErr(w, http.StatusServiceUnavailable, CodeUnavailable, "", "observability disabled (no sink)")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, CodeInternal, "", "streaming unsupported")
		return
	}
	// Subscribe before the headers go out: once the client sees the
	// stream open, every event the sink absorbs reaches it.
	events, cancel := s.cfg.Sink.Subscribe()
	defer cancel()
	// SSE is the one long-lived response: clear the per-request write
	// deadline so the server's WriteTimeout (slowloris protection for
	// every other endpoint) does not sever healthy streams.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": aiopsd event stream\n\n")
	fl.Flush()
	for {
		select {
		case e := <-events:
			line, err := json.Marshal(&e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}
