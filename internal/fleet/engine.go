package fleet

// The discrete-event engine behind every fleet front end, plus the
// arrival and status types the Scheduler contract (shard.go) speaks.
//
// The engine is the serial core of one responder cell. It owns the pool
// state, the severity/aging priority queue, admission control and the
// completion loop, and it has no clock. ShardedScheduler runs one engine
// per region and feeds it arrivals in (At, ID) order as its watermark
// passes them; the batch simulations and the gateway both go through
// that scheduler.

import (
	"errors"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// engine is the serial discrete-event core of one responder cell:
// responder pool state, the severity/aging priority queue, admission
// control, and the completion loop. It is not safe for concurrent use;
// ShardedScheduler serializes it under its mutex.
type engine struct {
	oces       int
	policy     Policy
	queueLimit int
	agingStep  time.Duration

	busy      []bool
	busyUntil []time.Duration
	queued    []int // outcome indices, arrival order

	outcomes []Outcome

	busySum  time.Duration
	makespan time.Duration
	shed     int
	peak     int

	// onProcessed, when non-nil, fires the moment an outcome's fleet
	// fate is decided — at dispatch (queue delay and resolution known)
	// or at shed. ShardedScheduler uses it to emit fleet events in
	// deterministic processing order.
	onProcessed func(idx int)
}

func newEngine(oces int, policy Policy, queueLimit int, agingStep time.Duration) *engine {
	return &engine{
		oces: oces, policy: policy, queueLimit: queueLimit, agingStep: agingStep,
		busy: make([]bool, oces), busyUntil: make([]time.Duration, oces),
	}
}

// add appends one arrival's outcome shell, carrying its session
// Result, and returns its outcome index.
func (e *engine) add(o Outcome) int {
	e.outcomes = append(e.outcomes, o)
	return len(e.outcomes) - 1
}

// dispatch hands outcome idx to responder r at time at.
func (e *engine) dispatch(r, idx int, at time.Duration) {
	o := &e.outcomes[idx]
	o.StartedAt = at
	o.Queue = at - o.ArrivedAt
	o.Handling = o.Result.TTM
	o.Resolution = o.Queue + o.Result.PenalizedTTM()
	o.Responder = r
	e.busy[r] = true
	e.busyUntil[r] = at + o.Handling
	e.busySum += o.Handling
	if e.busyUntil[r] > e.makespan {
		e.makespan = e.busyUntil[r]
	}
	if e.onProcessed != nil {
		e.onProcessed(idx)
	}
}

// pick selects which waiting incident a freed responder takes: the
// highest effective priority (severity plus aging boost) at time `at`,
// ties broken by arrival order. FIFO always takes the head.
func (e *engine) pick(at time.Duration) int {
	if e.policy == FIFO {
		return 0
	}
	best, bestPrio := 0, -1
	for j, idx := range e.queued {
		prio := e.outcomes[idx].Severity
		if e.agingStep > 0 {
			prio += int((at - e.outcomes[idx].ArrivedAt) / e.agingStep)
		}
		if prio > bestPrio {
			best, bestPrio = j, prio
		}
	}
	return best
}

// nextComp returns the earliest pending completion (time, responder),
// or (never, -1) when the pool is idle.
func (e *engine) nextComp() (time.Duration, int) {
	t, r := never, -1
	for i := range e.busy {
		if e.busy[i] && e.busyUntil[i] < t {
			t, r = e.busyUntil[i], i
		}
	}
	return t, r
}

// completeUntil frees every responder whose session ends at or before
// t, handing each straight to the highest-priority queued incident.
func (e *engine) completeUntil(t time.Duration) {
	for {
		compT, compR := e.nextComp()
		if compR < 0 || compT > t {
			return
		}
		e.busy[compR] = false
		if len(e.queued) > 0 {
			j := e.pick(compT)
			idx := e.queued[j]
			e.queued = append(e.queued[:j], e.queued[j+1:]...)
			e.dispatch(compR, idx, compT)
		}
	}
}

// arrive admits outcome idx at its ArrivedAt. Completions at time t
// resolve before arrivals at time t, so a just-freed responder can
// absorb a simultaneous arrival instead of the admission controller
// seeing a full queue. Callers must arrive outcomes in nondecreasing
// ArrivedAt order.
func (e *engine) arrive(idx int) {
	o := &e.outcomes[idx]
	e.completeUntil(o.ArrivedAt)
	idle := e.idle()
	switch {
	case idle >= 0:
		e.dispatch(idle, idx, o.ArrivedAt)
	case e.queueLimit <= 0 || len(e.queued) < e.queueLimit:
		e.enqueue(idx)
	default:
		e.shedOutcome(idx)
	}
}

// enqueue parks outcome idx in the waiting queue.
func (e *engine) enqueue(idx int) {
	e.queued = append(e.queued, idx)
	if len(e.queued) > e.peak {
		e.peak = len(e.queued)
	}
}

// idle returns the lowest-numbered free responder, or -1.
func (e *engine) idle() int {
	for r := range e.busy {
		if !e.busy[r] {
			return r
		}
	}
	return -1
}

// saturated reports whether an arrival right now would shed: no free
// responder and the waiting queue at its admission limit.
func (e *engine) saturated() bool {
	return e.idle() < 0 && e.queueLimit > 0 && len(e.queued) >= e.queueLimit
}

// shedOutcome marks outcome idx shed by admission control: it never
// occupies a responder and goes straight to the specialist escalation
// path.
func (e *engine) shedOutcome(idx int) {
	o := &e.outcomes[idx]
	o.Shed = true
	o.Responder = -1
	o.Resolution = harness.EscalationPenalty
	o.Result = harness.Result{Scenario: o.Scenario, Escalated: true}
	e.shed++
	if e.onProcessed != nil {
		e.onProcessed(idx)
	}
}

// report assembles the aggregate Report over everything the engine has
// processed. Call only after every arrival is in and completeUntil ran
// to the end of time (drain). labels scopes the saturation gauges (a
// region label on per-region reports).
func (e *engine) report(oces int, sink *obs.Sink, labels obs.Labels) *Report {
	rep := &Report{Outcomes: e.outcomes, Shed: e.shed, PeakQueueDepth: e.peak}
	rep.Admitted = len(e.outcomes) - e.shed
	mitigated := 0
	for i := range rep.Outcomes {
		if !rep.Outcomes[i].Shed && rep.Outcomes[i].Result.Mitigated {
			mitigated++
		}
	}
	aggregate(rep, oces, sink, e.busySum, e.makespan, mitigated, labels)
	return rep
}

// LiveArrival is one externally submitted incident: an identifier, an
// explicit simulated-clock arrival time, the (already executed) session
// result, and optionally the session's buffered event stream.
type LiveArrival struct {
	// ID uniquely names the arrival; ties at the same At order by ID.
	ID string
	// At is the simulated-clock arrival time. Offer rejects times
	// before the scheduler's watermark.
	At time.Duration
	// Scenario names the incident class (for events and outcomes).
	Scenario string
	// Severity is the dispatch priority class (0..3).
	Severity int
	// Region homes the arrival in a fleet region (empty means
	// DefaultRegion).
	Region string
	// Result is the session outcome for this incident, pre-executed by
	// the submitter.
	Result harness.Result
	// Events optionally carries the session's buffered event stream;
	// the scheduler absorbs it into Obs at dispatch time and releases
	// the recorder (shed arrivals discard it — those sessions never
	// happened).
	Events *obs.Recorder
}

// LiveState is the gateway-visible lifecycle of one live arrival.
type LiveState string

const (
	// StatePending: accepted, its arrival time is still ahead of the
	// watermark.
	StatePending LiveState = "pending"
	// StateQueued: arrived, waiting for a responder.
	StateQueued LiveState = "queued"
	// StateActive: a responder is working it.
	StateActive LiveState = "active"
	// StateResolved: the responder finished (see Outcome for how).
	StateResolved LiveState = "resolved"
	// StateShed: admission control refused it (queue saturated).
	StateShed LiveState = "shed"
)

// LiveStatus is a point-in-time view of one arrival.
type LiveStatus struct {
	State LiveState
	// Outcome is valid once the arrival left pending (zero otherwise).
	// Its Region field is the arrival's home region.
	Outcome Outcome
	// HandledBy names the region whose responder pool is executing the
	// arrival when cross-shard stealing moved it off its home region
	// (empty when home-handled, shed, or not yet dispatched).
	HandledBy string
}

// Scheduler errors, surfaced by Offer.
var (
	// ErrDuplicateID rejects a second arrival with an ID already seen.
	ErrDuplicateID = errors.New("fleet: duplicate arrival id")
	// ErrStaleArrival rejects an arrival stamped before the watermark —
	// admitting it would let submission interleaving change history.
	ErrStaleArrival = errors.New("fleet: arrival time before scheduler watermark")
	// ErrDrained rejects arrivals after DrainSharded closed the intake.
	ErrDrained = errors.New("fleet: scheduler drained")
)
