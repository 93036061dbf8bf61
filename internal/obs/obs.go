// Package obs is the deterministic observability layer: a structured
// per-session event stream, a mergeable metrics registry, and exporters
// (JSON event logs, Prometheus text) the evaluation CLIs expose through
// -trace-out / -metrics-out.
//
// The paper's §3 evaluation methodology is about *measurement* — TTM,
// mistake overheads, system (inference) cost and management cost — and
// production AIOps systems treat structured telemetry as table stakes.
// This package supplies the substrate: every hypothesis proposed or
// tested, every tool invocation (with its fault/retry/circuit-breaker
// disposition), every mitigation action, OCE escalation and LLM call is
// emitted as a typed Event with simulated-clock timestamps, and a
// registry aggregates the distributions §3 cares about.
//
// Determinism is the core contract, shared with internal/parallel and
// internal/faults: events carry only simulated-clock time (never wall
// clock), per-trial Recorders buffer events privately, and the Sink
// absorbs them in trial order — so event logs and metric aggregates are
// byte-identical at every worker count. A nil Observer is a true no-op:
// code paths that emit through a nil observer behave (and render)
// exactly as a build without this package.
//
// Memory is the other contract. A Sink keeps its event log only when
// built by NewLogSink (a -trace-out export, tests); the default sink
// counts each event into the registry and drops it, so a long-lived
// daemon does not grow with its event count. Live consumers (the
// gateway's SSE stream) subscribe to the sink and have each event
// pushed to them as it is absorbed, instead of reading a log.
package obs

import (
	"sync"
	"time"
)

// Type classifies events. Display-trace events reuse the session trace
// step kinds verbatim (see internal/core's StepKind); the constants
// below are the purely structural kinds that never appear in the
// rendered trace.
type Type string

// Structural event kinds (the display kinds live in internal/core and
// pass through this package as opaque strings).
const (
	// EvSessionStart opens one runner session over one incident.
	EvSessionStart Type = "session-start"
	// EvSessionEnd closes a session and carries the Outcome summary.
	EvSessionEnd Type = "session-end"
	// EvHypothesis is one hypothesis proposed by the former module.
	EvHypothesis Type = "hypothesis-proposed"
	// EvHypothesisTested is the tester module's verdict on a hypothesis.
	EvHypothesisTested Type = "hypothesis-tested"
	// EvLLMCall is one model inference, with token and dollar cost.
	EvLLMCall Type = "llm-call"
	// EvToolCall is one toolbox invocation attempt, with disposition.
	EvToolCall Type = "tool-call"
	// EvMitigation is one executed mitigation action.
	EvMitigation Type = "mitigation-action"
	// EvFleetIncident is one fleet-level arrival (queueing delay).
	EvFleetIncident Type = "fleet-incident"
	// EvFleetShed is one arrival the fleet scheduler's admission control
	// refused (queue saturated) and handed straight to escalation.
	EvFleetShed Type = "fleet-shed"
)

// Event is one structured observation. Only the fields relevant to the
// event's Type are set; zero values are omitted from the JSON encoding
// so logs stay compact. At is always simulated-clock time.
type Event struct {
	// Seq is the global sequence number the Sink assigns at absorb time
	// (0 while buffered in a Recorder).
	Seq int64 `json:"seq,omitempty"`
	// Session labels the session (trial) the event belongs to.
	Session string `json:"session,omitempty"`
	// At is the simulated-clock timestamp.
	At time.Duration `json:"at"`
	// Round is the hypothesis-test round, when inside a helper session.
	Round int `json:"round,omitempty"`
	// Type classifies the event.
	Type Type `json:"type"`
	// Detail is the human-readable line (display-trace events).
	Detail string `json:"detail,omitempty"`

	// Runner and Scenario identify the session's arm and incident class.
	Runner   string `json:"runner,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	// Region is the fleet region the incident is homed in (set on every
	// fleet event; empty on session events).
	Region string `json:"region,omitempty"`
	// Seed is the trial seed (session-start events).
	Seed int64 `json:"seed,omitempty"`

	// Hypothesis fields.
	Hypothesis string  `json:"hypothesis,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// Verdict is the tester's conclusion: supported, unsupported,
	// inconclusive, or no-test.
	Verdict string `json:"verdict,omitempty"`

	// Tool fields. Disposition records how the invocation went: "ok",
	// "error", "degraded" (tool calls); "approved"/"pre-approved"
	// (approvals); "opened"/"rerouted"/"missing" (breaker events).
	Tool        string        `json:"tool,omitempty"`
	Disposition string        `json:"disposition,omitempty"`
	Latency     time.Duration `json:"latency,omitempty"`

	// Action is the mitigation action (kind(target) rendering).
	Action string `json:"action,omitempty"`

	// LLM cost fields (llm-call events).
	PromptTokens     int     `json:"prompt_tokens,omitempty"`
	CompletionTokens int     `json:"completion_tokens,omitempty"`
	CostUSD          float64 `json:"cost_usd,omitempty"`

	// Queue is the fleet-level queueing delay (fleet-incident events).
	Queue time.Duration `json:"queue,omitempty"`
	// Resolution is the customer-experienced fleet resolution time —
	// queueing delay plus penalized session TTM (fleet-incident events).
	Resolution time.Duration `json:"resolution,omitempty"`

	// Outcome is the session summary (session-end events only).
	Outcome *SessionOutcome `json:"outcome,omitempty"`
}

// SessionOutcome is the per-session summary a session-end event carries:
// the §3 bookkeeping in one record.
type SessionOutcome struct {
	Mitigated  bool    `json:"mitigated"`
	Escalated  bool    `json:"escalated"`
	Correct    bool    `json:"correct"`
	TTMMinutes float64 `json:"ttm_minutes"`

	Rounds    int `json:"rounds,omitempty"`
	ToolCalls int `json:"tool_calls,omitempty"`
	LLMCalls  int `json:"llm_calls,omitempty"`
	Tokens    int `json:"tokens,omitempty"`

	// Mistake overheads (§3).
	Wrong      int `json:"wrong,omitempty"`
	Secondary  int `json:"secondary,omitempty"`
	PlanErrors int `json:"plan_errors,omitempty"`

	// Resilient-path bookkeeping (PR2).
	Retries     int `json:"retries,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`

	// CostUSD is the session's model inference cost (§3 system cost).
	CostUSD float64 `json:"cost_usd,omitempty"`
}

// Observer receives events. Implementations must be safe for use from a
// single session at a time; cross-session fan-in goes through per-trial
// Recorders absorbed into a Sink in trial order.
type Observer interface {
	Emit(Event)
}

// Emit forwards e to o when o is non-nil. The nil-observer path is a
// true no-op so instrumented code stays byte-identical to its
// pre-instrumentation behaviour.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Emit(e)
	}
}

// Recorder buffers one session's (or one trial's) events privately, so
// parallel trials never contend and the Sink can absorb them in a
// deterministic order afterwards.
type Recorder struct {
	// Session labels every event that does not carry its own label.
	Session string
	// Events is the buffered stream, in emission order.
	Events []Event
}

// recorderPool recycles Recorders (and, more importantly, their event
// buffers) across trials: the parallel harnesses allocate one recorder
// per trial, and the buffers grow to hundreds of events.
var recorderPool = sync.Pool{New: func() any { return new(Recorder) }}

// AcquireRecorder returns a pooled recorder labelled with session. Pair
// it with Release once the recorder's events have been absorbed.
func AcquireRecorder(session string) *Recorder {
	r := recorderPool.Get().(*Recorder)
	r.Session = session
	return r
}

// Release returns the recorder to the pool, keeping its buffer capacity.
// Callers must not touch the recorder afterwards; the Sink copies events
// on absorb, so absorbed events survive recycling. The buffered events
// are zeroed first so a pooled buffer pins no Detail strings or
// outcomes until its slots are overwritten.
func (r *Recorder) Release() {
	r.Session = ""
	clear(r.Events)
	r.Events = r.Events[:0]
	recorderPool.Put(r)
}

// Emit implements Observer.
func (r *Recorder) Emit(e Event) {
	if e.Session == "" {
		e.Session = r.Session
	}
	r.Events = append(r.Events, e)
}

// stamped decorates every event with a runner label; the harness wraps
// the caller's observer with it so even events emitted deep inside
// internal/core carry the arm they belong to.
type stamped struct {
	o      Observer
	runner string
}

// WithRunner returns an observer that stamps runner onto events missing
// one. A nil observer stays nil (and so stays a true no-op).
func WithRunner(o Observer, runner string) Observer {
	if o == nil {
		return nil
	}
	return stamped{o: o, runner: runner}
}

// Emit implements Observer.
func (s stamped) Emit(e Event) {
	if e.Runner == "" {
		e.Runner = s.runner
	}
	s.o.Emit(e)
}
