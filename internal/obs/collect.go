package obs

import (
	"io"
	"slices"
	"sync"
)

// Fixed bucket layouts. These are part of the export contract: fixed
// layouts make histogram merges associative, which is what lets
// per-trial registries fold into fleet aggregates independently of
// worker count.
var (
	// TTMBuckets spans minutes-to-hours incident durations.
	TTMBuckets = []float64{5, 10, 20, 30, 45, 60, 90, 120, 180, 240, 360, 480}
	// RoundBuckets spans the helper's hypothesis-test iterations.
	RoundBuckets = []float64{1, 2, 3, 4, 6, 8, 10, 12}
	// LatencyBuckets spans per-call latencies in minutes.
	LatencyBuckets = []float64{0.25, 0.5, 1, 2, 3, 5, 8, 12, 20}
	// QueueBuckets spans fleet queueing delays in minutes.
	QueueBuckets = []float64{1, 5, 15, 30, 60, 120, 240, 480, 960}
	// ResolutionBuckets spans fleet resolution times (queue wait plus
	// penalized TTM) in minutes — wider than TTMBuckets because queueing
	// under saturation dominates the tail.
	ResolutionBuckets = []float64{15, 30, 60, 120, 240, 480, 960, 1920}
)

// Metric names. DESIGN.md §3 maps each paper cost metric onto these.
const (
	MSessions        = "aiops_sessions_total"
	MTTM             = "aiops_ttm_minutes"
	MRounds          = "aiops_session_rounds"
	MMistakes        = "aiops_mistakes_total"
	MOCEBusy         = "aiops_oce_busy_minutes_total"
	MEscalations     = "aiops_escalations_total"
	MApprovals       = "aiops_oce_approvals_total"
	MHypProposed     = "aiops_hypotheses_proposed_total"
	MHypTested       = "aiops_hypotheses_tested_total"
	MToolCalls       = "aiops_tool_invocations_total"
	MToolLatency     = "aiops_tool_latency_minutes"
	MToolRetries     = "aiops_tool_retries_total"
	MBreakerTrips    = "aiops_breaker_trips_total"
	MRerouted        = "aiops_rerouted_total"
	MQuarantined     = "aiops_quarantined_total"
	MLLMCalls        = "aiops_llm_calls_total"
	MLLMTokens       = "aiops_llm_tokens_total"
	MLLMCost         = "aiops_llm_cost_usd_total"
	MLLMLatency      = "aiops_llm_latency_minutes"
	MMitigations     = "aiops_mitigation_actions_total"
	MFleetIncidents  = "aiops_fleet_incidents_total"
	MFleetQueue      = "aiops_fleet_queue_minutes"
	MFleetUtil       = "aiops_fleet_utilization"
	MFleetShed       = "aiops_fleet_shed_total"
	MFleetResolution = "aiops_fleet_resolution_minutes"
	MFleetQueueDepth = "aiops_fleet_queue_depth_peak"
	MFleetDrain      = "aiops_fleet_drain_minutes"
	MFleetStolen     = "aiops_fleet_stolen_total"
	MGwThrottled     = "aiops_gateway_throttled_total"
	MGwShed          = "aiops_gateway_shed_total"
	MJournalRecords  = "aiops_journal_records_total"
	MJournalReplayed = "aiops_journal_replayed_total"
	MJournalBytes    = "aiops_journal_bytes_total"
	MLakeEntries     = "aiops_lake_entries_total"
	MLakeBytes       = "aiops_lake_bytes_total"
)

// NewAIOpsRegistry declares the §3 metric families with their fixed
// bucket layouts and help text.
func NewAIOpsRegistry() *Registry {
	r := NewRegistry()
	r.DeclareCounter(MSessions, "sessions by runner and outcome (mitigated|escalated|unresolved)")
	r.DeclareHistogram(MTTM, "time to mitigation (or hand-off) per session, minutes — the paper's headline efficiency metric", TTMBuckets)
	r.DeclareHistogram(MRounds, "hypothesis-test rounds per session", RoundBuckets)
	r.DeclareCounter(MMistakes, "the paper's mistake overheads by kind (wrong-mitigation|secondary-impact|plan-error)")
	r.DeclareCounter(MOCEBusy, "responder busy time, minutes — the paper's management cost")
	r.DeclareCounter(MEscalations, "sessions handed off to a specialist team")
	r.DeclareCounter(MApprovals, "OCE approval decisions by mode (approved|pre-approved|veto)")
	r.DeclareCounter(MHypProposed, "hypotheses proposed by the former module")
	r.DeclareCounter(MHypTested, "hypothesis verdicts by outcome (supported|unsupported|inconclusive|no-test)")
	r.DeclareCounter(MToolCalls, "toolbox invocations by tool and disposition (ok|error|degraded)")
	r.DeclareHistogram(MToolLatency, "per-invocation tool latency, minutes", LatencyBuckets)
	r.DeclareCounter(MToolRetries, "tool invocations re-attempted after a failure (resilient path)")
	r.DeclareCounter(MBreakerTrips, "per-tool circuit breakers opened by repeated failures")
	r.DeclareCounter(MRerouted, "tests redirected to the monitor cross-check while a breaker was open")
	r.DeclareCounter(MQuarantined, "degraded tool results set aside as inconclusive")
	r.DeclareCounter(MLLMCalls, "model inferences — the paper's system cost, call count")
	r.DeclareCounter(MLLMTokens, "model tokens by kind (prompt|completion)")
	r.DeclareCounter(MLLMCost, "model inference cost in dollars (2023 GPT-4-32K pricing)")
	r.DeclareHistogram(MLLMLatency, "per-inference latency, minutes", LatencyBuckets)
	r.DeclareCounter(MMitigations, "executed mitigation actions by kind")
	r.DeclareCounter(MFleetIncidents, "fleet-level incident arrivals")
	r.DeclareHistogram(MFleetQueue, "fleet queueing delay before a responder frees up, minutes", QueueBuckets)
	r.DeclareGauge(MFleetUtil, "responder-pool busy fraction over the makespan")
	r.DeclareCounter(MFleetShed, "arrivals the admission controller shed straight to escalation (queue saturated)")
	r.DeclareHistogram(MFleetResolution, "customer-experienced resolution time (queue wait + penalized TTM), minutes", ResolutionBuckets)
	r.DeclareGauge(MFleetQueueDepth, "peak incidents waiting in the scheduler queue over the run")
	r.DeclareGauge(MFleetDrain, "simulated minutes between the last arrival and the pool going idle (graceful drain)")
	r.DeclareCounter(MFleetStolen, "saturated-region arrivals escalated to an idle responder in another region (by from/to region)")
	r.DeclareCounter(MGwThrottled, "gateway requests refused 429 by the per-caller token bucket")
	r.DeclareCounter(MGwShed, "gateway creates refused 503 by queue-depth load shedding")
	r.DeclareCounter(MJournalRecords, "state transitions appended to the write-ahead incident journal")
	r.DeclareCounter(MJournalReplayed, "journal records replayed during boot-time recovery")
	r.DeclareCounter(MJournalBytes, "bytes appended to the write-ahead incident journal")
	r.DeclareCounter(MLakeEntries, "incident postmortems ingested into the data lake")
	r.DeclareCounter(MLakeBytes, "bytes appended to the data lake's incident log")
	return r
}

// fleetLabels builds the label set for fleet-level metrics: the runner
// and the home region every fleet event carries.
func fleetLabels(e Event) Labels {
	return Labels{"runner": e.Runner, "region": e.Region}
}

// Collect folds one event into the registry: the single mapping from
// the event stream onto the §3 metric families.
func Collect(r *Registry, e Event) {
	switch e.Type {
	case EvSessionEnd:
		if e.Outcome == nil {
			return
		}
		o := e.Outcome
		outcome := "unresolved"
		switch {
		case o.Mitigated:
			outcome = "mitigated"
		case o.Escalated:
			outcome = "escalated"
		}
		r.Inc(MSessions, Labels{"runner": e.Runner, "outcome": outcome}, 1)
		r.Observe(MTTM, Labels{"runner": e.Runner}, o.TTMMinutes)
		if o.Rounds > 0 {
			r.Observe(MRounds, Labels{"runner": e.Runner}, float64(o.Rounds))
		}
		r.Inc(MOCEBusy, Labels{"runner": e.Runner}, o.TTMMinutes)
		if o.Escalated {
			r.Inc(MEscalations, Labels{"runner": e.Runner}, 1)
		}
		for kind, n := range map[string]int{
			"wrong-mitigation": o.Wrong,
			"secondary-impact": o.Secondary,
			"plan-error":       o.PlanErrors,
		} {
			if n > 0 {
				r.Inc(MMistakes, Labels{"runner": e.Runner, "kind": kind}, float64(n))
			}
		}
		if o.CostUSD > 0 {
			r.Inc(MLLMCost, Labels{"runner": e.Runner}, o.CostUSD)
		}
	case EvHypothesis:
		r.Inc(MHypProposed, Labels{"runner": e.Runner}, 1)
	case EvHypothesisTested:
		r.Inc(MHypTested, Labels{"runner": e.Runner, "verdict": e.Verdict}, 1)
	case EvToolCall:
		r.Inc(MToolCalls, Labels{"tool": e.Tool, "disposition": e.Disposition}, 1)
		r.Observe(MToolLatency, Labels{"tool": e.Tool}, e.Latency.Minutes())
	case EvLLMCall:
		r.Inc(MLLMCalls, Labels{"runner": e.Runner}, 1)
		r.Inc(MLLMTokens, Labels{"runner": e.Runner, "kind": "prompt"}, float64(e.PromptTokens))
		r.Inc(MLLMTokens, Labels{"runner": e.Runner, "kind": "completion"}, float64(e.CompletionTokens))
		r.Observe(MLLMLatency, Labels{"runner": e.Runner}, e.Latency.Minutes())
	case EvMitigation:
		r.Inc(MMitigations, Labels{"kind": e.Action}, 1)
	case EvFleetIncident:
		labels := fleetLabels(e)
		r.Inc(MFleetIncidents, labels, 1)
		r.Observe(MFleetQueue, labels, e.Queue.Minutes())
		if e.Resolution > 0 {
			r.Observe(MFleetResolution, labels, e.Resolution.Minutes())
		}
	case EvFleetShed:
		labels := fleetLabels(e)
		r.Inc(MFleetIncidents, labels, 1)
		r.Inc(MFleetShed, labels, 1)
	case "approval":
		r.Inc(MApprovals, Labels{"runner": e.Runner, "mode": e.Disposition}, 1)
	case "veto":
		r.Inc(MApprovals, Labels{"runner": e.Runner, "mode": "veto"}, 1)
	case "retry":
		r.Inc(MToolRetries, Labels{"tool": e.Tool}, 1)
	case "quarantine":
		r.Inc(MQuarantined, Labels{"tool": e.Tool}, 1)
	case "breaker":
		switch e.Disposition {
		case "opened":
			r.Inc(MBreakerTrips, Labels{"tool": e.Tool}, 1)
		case "rerouted":
			r.Inc(MRerouted, Labels{"tool": e.Tool}, 1)
		}
	}
}

// Sink is the top-level collection target: the aggregate registry,
// the global sequence counter, and the live subscriber set. Parallel
// paths buffer into per-trial Recorders and Absorb them in trial order;
// serial paths may Emit into the Sink directly (it implements
// Observer).
//
// A sink built by NewSink keeps no event log: each event is sequenced,
// pushed to the subscribers, folded into the registry, and dropped, so
// a long-lived daemon's memory does not grow with its event count. A
// sink whose log will be read (a -trace-out export, a test) is built
// by NewLogSink, which also keeps every event in absorb order.
type Sink struct {
	mu     sync.Mutex
	keep   bool
	events []Event
	reg    *Registry
	seq    int64
	subs   []chan Event
}

// NewSink builds a sink over the standard aiops registry that keeps no
// event log: Events and WriteEvents return nothing.
func NewSink() *Sink { return &Sink{reg: NewAIOpsRegistry()} }

// NewLogSink builds a sink over the standard aiops registry that also
// keeps the globally ordered event log Events and WriteEvents return.
func NewLogSink() *Sink { return &Sink{reg: NewAIOpsRegistry(), keep: true} }

// KeepsLog reports whether the sink keeps an event log (NewLogSink).
func (s *Sink) KeepsLog() bool { return s.keep }

// Emit implements Observer: the event gets the next global sequence
// number, joins the log if the sink keeps one, goes to every
// subscriber, and feeds the registry.
func (s *Sink) Emit(e Event) {
	s.mu.Lock()
	s.record(e)
	s.mu.Unlock()
	Collect(s.reg, e)
}

// record sequences one event, logs it if the sink keeps a log, and
// offers it to each subscriber without blocking: a subscriber whose
// channel is full misses the event (the stream is a tap, not the
// record). Callers hold s.mu, so every subscriber sees seq order.
func (s *Sink) record(e Event) {
	s.seq++
	e.Seq = s.seq
	if s.keep {
		s.events = append(s.events, e)
	}
	for _, ch := range s.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// subscriberBuffer bounds each subscriber's channel: the events a
// subscriber may fall behind by before it starts missing them.
const subscriberBuffer = 1024

// Subscribe registers a subscriber that receives every event emitted
// or absorbed from now on, sequenced, in seq order, until cancel is
// called. A subscriber more than 1,024 events behind misses events
// rather than slowing the sink. The channel is never closed.
func (s *Sink) Subscribe() (events <-chan Event, cancel func()) {
	ch := make(chan Event, subscriberBuffer)
	s.mu.Lock()
	s.subs = append(s.subs, ch)
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		s.subs = slices.DeleteFunc(s.subs, func(c chan Event) bool { return c == ch })
		s.mu.Unlock()
	}
}

// Absorb folds one trial's buffered events into the sink. Callers must
// absorb recorders in trial order — that ordering, not scheduling, is
// what makes the log and the aggregates worker-count-independent.
func (s *Sink) Absorb(r *Recorder) {
	if r == nil {
		return
	}
	for _, e := range r.Events {
		s.Emit(e)
	}
}

// AbsorbSink folds another sink's log and aggregates into s, re-assigning
// global sequence numbers. It exists for harnesses that run whole
// sub-simulations concurrently (e.g. independent fleet cells): give each
// cell a private sink and absorb the cell sinks in cell order, and the
// merged log stays worker-count-independent. Gauge values resolve to the
// last absorbed sink's, which is likewise deterministic in that order.
// Events o counted but did not log still advance s's sequence counter.
func (s *Sink) AbsorbSink(o *Sink) {
	if s == nil || o == nil {
		return
	}
	o.mu.Lock()
	events, n := o.events, o.seq
	o.mu.Unlock()
	s.mu.Lock()
	for _, e := range events {
		s.record(e)
	}
	s.seq += n - int64(len(events))
	s.mu.Unlock()
	s.reg.Merge(o.reg)
}

// Observer adapts the sink to the Observer interface, mapping a nil
// *Sink to a nil interface so downstream nil-observer checks keep
// short-circuiting (a typed-nil Observer would defeat them).
func (s *Sink) Observer() Observer {
	if s == nil {
		return nil
	}
	return s
}

// Events returns the absorbed log (live slice; do not mutate), or nil
// for a sink that keeps no log.
func (s *Sink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}

// Registry exposes the aggregate metrics.
func (s *Sink) Registry() *Registry { return s.reg }

// WriteEvents writes the event log as JSON lines; a sink that keeps no
// log writes nothing.
func (s *Sink) WriteEvents(w io.Writer) error {
	s.mu.Lock()
	events := s.events
	s.mu.Unlock()
	return WriteEventLog(w, events)
}

// WriteMetrics writes the aggregate registry in Prometheus text format.
func (s *Sink) WriteMetrics(w io.Writer) error { return s.reg.WritePrometheus(w) }
