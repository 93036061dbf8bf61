// Package fleet is the deterministic fleet-scale incident scheduler:
// incidents arrive as a Poisson process, admission control bounds the
// waiting queue (shedding the overflow straight to escalation),
// severity-classed priority queues with aging decide who a freed
// responder helps next, and a finite responder pool executes the actual
// helper sessions concurrently on the parallel trial pool — while the
// simulation itself stays a serial discrete-event loop on the simulated
// clock, so every report, event log and metric dump is byte-identical
// at any worker count.
//
// The paper's §1/§3 argue that Time to Mitigation is the headline
// metric providers feel; this package models the fleet-level
// consequence: responder pools are finite, so per-incident TTM
// compounds into customer-visible queueing delay, and a helper that
// halves TTM more than halves what customers experience once the pool
// runs hot (experiments E10 and E14). The hyperscale agentic-AI
// literature frames the same gap between per-incident agents and fleet
// operations — admission control, backpressure and graceful drain are
// what turn a per-incident helper into an operable system.
//
// One scheduler runs every front end. ShardedScheduler (shard.go) keeps
// one discrete-event engine (engine.go) per region; a single responder
// cell is simply its one-region case. The batch simulations (Simulate
// and SimulateSharded) and the live service (internal/gateway) all feed
// it.
//
// Determinism is the core contract, shared with internal/parallel,
// internal/faults and internal/obs. The batch simulations run in three
// phases:
//
//  1. Arrivals are pre-drawn serially from the config seed: arrival
//     time, scenario, and session seed for arrival i are a pure
//     function of (seed, i) — never of worker count or scheduling.
//  2. Sessions execute speculatively on the parallel pool: each is a
//     self-contained trial keyed by its arrival index, buffering its
//     events in a private recorder. (Sessions for arrivals the
//     admission controller later sheds are discarded — speculation
//     wastes a little compute to keep the phase embarrassingly
//     parallel.) Each session's world build seeds a lazy
//     internal/randsrc source: the same stream as math/rand's, without
//     the register fill that would otherwise dominate a flat session.
//  3. The pre-drawn tape is offered to a ShardedScheduler and drained:
//     admission, queueing, aging, dispatch and drain are pure
//     functions of the pre-drawn arrivals and the session TTMs, so the
//     schedule is identical at workers=1 and workers=N.
package fleet

import (
	"fmt"
	"math"
	"time"

	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// Policy selects the dispatch discipline.
type Policy int

const (
	// SeverityAging (the default) dispatches the waiting incident with
	// the highest effective priority: severity class plus one class per
	// AgingStep waited, ties broken by arrival order. Aging prevents
	// starvation of low-severity incidents under sustained load.
	SeverityAging Policy = iota
	// FIFO dispatches in strict arrival order. With QueueLimit 0 it is
	// the classic first-free model of experiment E10.
	FIFO
)

// Config parameterizes a single-cell fleet simulation. A zero
// QueueLimit means an unbounded queue that never sheds.
type Config struct {
	// OCEs is the responder pool size (default 3).
	OCEs int
	// ArrivalsPerHour is the mean incident arrival rate (default 2).
	ArrivalsPerHour float64
	// Incidents is how many arrivals to simulate (default 100).
	Incidents int
	// Mix is the scenario mix (default scenarios.All()).
	Mix []scenarios.Scenario
	// Runner handles each admitted incident.
	Runner harness.Runner
	// Seed drives the arrival process and the per-incident session
	// seeds; everything downstream is a pure function of it.
	Seed int64
	// Workers bounds the parallel session executors (<= 0: one per
	// CPU). Worker count never changes a single output byte — only
	// wall-clock time.
	Workers int
	// Policy selects the dispatch discipline (default SeverityAging).
	Policy Policy
	// QueueLimit bounds the waiting queue: when an arrival finds
	// QueueLimit incidents already waiting, admission control sheds it
	// straight to escalation. 0 means unbounded (never shed).
	QueueLimit int
	// AgingStep is the waiting time that promotes a queued incident by
	// one severity class under SeverityAging (default 30 minutes;
	// negative disables aging, leaving pure severity priority).
	AgingStep time.Duration
	// Obs, when non-nil, collects every admitted session's event
	// stream and its fleet-level event (in the scheduler's processing
	// order), the shed events, and the saturation gauges.
	Obs *obs.Sink
}

// Outcome is one arrival's fleet-level record.
type Outcome struct {
	// Scenario names the incident class.
	Scenario string
	// Severity is the incident's severity class (0..3; 3 most severe).
	Severity int
	// Region is the fleet region the incident is homed in
	// (DefaultRegion for a single-cell fleet).
	Region string
	// Shed marks an arrival the admission controller refused: it never
	// occupied a responder and went straight to escalation.
	Shed bool
	// ArrivedAt and StartedAt bracket the queueing delay.
	ArrivedAt time.Duration
	StartedAt time.Duration
	// Queue is how long the incident waited for a free responder.
	Queue time.Duration
	// Handling is the responder's busy time (TTM, or time-to-hand-off).
	Handling time.Duration
	// Resolution is the customer-experienced time: exactly Queue plus
	// the session's penalized TTM (shed arrivals carry the escalation
	// penalty alone).
	Resolution time.Duration
	// Responder is the pool slot that handled the incident (-1: shed).
	Responder int
	// Result is the session outcome (zero-valued for shed arrivals
	// beyond Scenario/Escalated).
	Result harness.Result
}

// Report aggregates a fleet simulation.
type Report struct {
	// Outcomes holds one record per arrival: in (ArrivedAt, ID) order
	// fleet-wide, in placement order per region (see RegionReport).
	Outcomes []Outcome

	// Admitted and Shed partition the arrivals.
	Admitted int
	Shed     int

	// Queue statistics cover admitted arrivals only (a shed arrival
	// never queues); resolution statistics cover every arrival.
	MeanQueue time.Duration
	P95Queue  time.Duration

	MeanResolution time.Duration
	P50Resolution  time.Duration
	P95Resolution  time.Duration
	P99Resolution  time.Duration

	// Utilization is the pool's busy fraction over the makespan.
	Utilization float64
	// MitigatedRate is the fraction of all arrivals the runner
	// mitigated itself (shed arrivals count against it).
	MitigatedRate float64
	// PeakQueueDepth is the deepest the waiting queue ever got.
	PeakQueueDepth int
	// Drain is the simulated time between the latest arrival and the
	// pool going idle — the graceful-drain window on shutdown.
	Drain time.Duration
}

// arrival is one pre-drawn arrival: a pure function of (seed, index).
// IDs are the zero-padded pre-draw index, so sorting by time with ties
// kept in pre-draw order yields the scheduler's (At, ID) order.
type arrival struct {
	id       string
	at       time.Duration
	region   int // index into the sorted region list
	scenario scenarios.Scenario
	seed     int64
}

// session is one speculatively executed incident session.
type session struct {
	res      harness.Result
	severity int
}

const never = time.Duration(math.MaxInt64)

// arrivalID formats the pre-draw index as an arrival ID.
func arrivalID(i int) string { return fmt.Sprintf("%07d", i) }

// Simulate runs the single-cell fleet model: a one-region SimulateSharded
// with its own arrival draw. See the package comment for the
// three-phase structure that keeps it worker-count-independent.
func Simulate(cfg Config) *Report {
	sc := ShardedConfig{
		OCEs: cfg.OCEs, ArrivalsPerHour: cfg.ArrivalsPerHour, Incidents: cfg.Incidents,
		Mix: cfg.Mix, Runner: cfg.Runner, Seed: cfg.Seed, Workers: cfg.Workers,
		Policy: cfg.Policy, QueueLimit: cfg.QueueLimit, AgingStep: cfg.AgingStep,
		Obs: cfg.Obs,
	}.withDefaults()

	// Phase 1 — serial arrival pre-draw: gap, scenario, session seed per
	// arrival and no region draw. E10, E14 and the imctl fleet golden
	// pin this order.
	rng := randsrc.New(sc.Seed)
	draws := make([]arrival, sc.Incidents)
	var now time.Duration
	for i := range draws {
		now += time.Duration(rng.ExpFloat64() / sc.ArrivalsPerHour * float64(time.Hour))
		draws[i] = arrival{
			id:       arrivalID(i),
			at:       now,
			scenario: sc.Mix[rng.Intn(len(sc.Mix))],
			seed:     rng.Int63(),
		}
	}
	return simulate(sc, draws).Total
}

// simulate runs phases 2 and 3 over a pre-drawn tape in (at, id) order.
func simulate(cfg ShardedConfig, draws []arrival) *ShardedReport {
	// Phase 2 — speculative parallel session execution. Each trial is
	// self-contained: it builds its own world from the pre-drawn seed
	// and buffers events privately. The trial pool's own derived seeds
	// are ignored; arrival seeds come from phase 1.
	n := len(draws)
	or, observed := cfg.Runner.(harness.ObservedRunner)
	var recs []*obs.Recorder
	if cfg.Obs != nil && observed {
		recs = make([]*obs.Recorder, n)
	}
	trials := parallel.RunTrials(n, cfg.Workers, cfg.Seed, func(_ int64, i int) session {
		d := draws[i]
		in := d.scenario.Build(randsrc.New(d.seed))
		sev := in.Incident.Severity
		var res harness.Result
		if recs != nil {
			rec := obs.AcquireRecorder("fleet/" + d.id)
			recs[i] = rec
			res = or.RunObserved(in, d.seed, rec)
		} else {
			res = cfg.Runner.Run(in, d.seed)
		}
		return session{res: res, severity: sev}
	})

	// Phase 3 — offer the tape to the sharded scheduler and drain it.
	// Its batched ticks interleave regions and, with Steal on, move
	// overflow across pools, so the whole phase is one discrete-event
	// system.
	s := NewSharded(ShardedLiveConfig{
		Regions: cfg.Regions, OCEs: cfg.OCEs, Policy: cfg.Policy,
		QueueLimit: cfg.QueueLimit, AgingStep: cfg.AgingStep,
		Steal: cfg.Steal, BatchStep: cfg.BatchStep,
		Obs: cfg.Obs, RunnerName: cfg.Runner.Name(), SessionPrefix: "fleet/",
	})
	s.pending = make([]LiveArrival, 0, n) // the whole tape is offered before any step
	s.index = make(map[string]shardRef, n)
	for i, d := range draws {
		sess := trials[i].Value
		if trials[i].Err != nil {
			// A crashed session becomes a specialist hand-off, exactly
			// as harness.PoolResult treats pooled trials.
			sess = session{res: harness.Result{
				Scenario: d.scenario.Name(), Escalated: true, PlanErrors: 1,
			}}
		}
		var rec *obs.Recorder
		if recs != nil {
			rec = recs[i]
		}
		// Offers arrive presorted, so each insert is an append.
		if err := s.Offer(LiveArrival{
			ID: d.id, At: d.at, Scenario: d.scenario.Name(),
			Severity: sess.severity, Region: cfg.Regions[d.region],
			Result: sess.res, Events: rec,
		}); err != nil {
			panic("fleet: simulate offer: " + err.Error())
		}
	}
	return s.DrainSharded()
}

// aggregate fills the report's summary statistics and saturation gauges.
// labels scopes the gauges (nil for the fleet-wide total; a region
// label for per-region reports).
func aggregate(rep *Report, oces int, sink *obs.Sink, busySum, makespan time.Duration, mitigated int, labels obs.Labels) {
	n := len(rep.Outcomes)
	if n == 0 {
		return
	}
	queues := make([]float64, 0, n)
	resolutions := make([]float64, n)
	var qSum, rSum, last time.Duration
	for i := range rep.Outcomes {
		o := &rep.Outcomes[i]
		last = max(last, o.ArrivedAt)
		if !o.Shed {
			queues = append(queues, o.Queue.Minutes())
			qSum += o.Queue
		}
		resolutions[i] = o.Resolution.Minutes()
		rSum += o.Resolution
	}
	if rep.Admitted > 0 {
		rep.MeanQueue = qSum / time.Duration(rep.Admitted)
		rep.P95Queue = minutes(eval.Percentile(queues, 95))
	}
	rep.MeanResolution = rSum / time.Duration(n)
	rep.P50Resolution = minutes(eval.Percentile(resolutions, 50))
	rep.P95Resolution = minutes(eval.Percentile(resolutions, 95))
	rep.P99Resolution = minutes(eval.Percentile(resolutions, 99))
	if makespan > 0 {
		rep.Utilization = float64(busySum) / (float64(makespan) * float64(oces))
	}
	rep.MitigatedRate = float64(mitigated) / float64(n)
	if makespan > last {
		rep.Drain = makespan - last
	}

	if sink != nil {
		reg := sink.Registry()
		reg.Set(obs.MFleetUtil, labels, rep.Utilization)
		reg.Set(obs.MFleetQueueDepth, labels, float64(rep.PeakQueueDepth))
		reg.Set(obs.MFleetDrain, labels, rep.Drain.Minutes())
	}
}

func minutes(m float64) time.Duration { return time.Duration(m * float64(time.Minute)) }

// Arm pairs a named runner's report for rendering.
type Arm struct {
	Name   string
	Report *Report
}

// SummaryTable renders one comparable row per arm — the table
// `imctl fleet` prints and the golden tests pin.
func SummaryTable(title string, arms []Arm) *eval.Table {
	t := eval.NewTable(title,
		"arm", "shed", "meanQueue(m)", "p50Res(m)", "p95Res(m)", "p99Res(m)", "mitigated", "util", "drain(m)")
	for _, a := range arms {
		r := a.Report
		t.AddRow(a.Name, fmt.Sprintf("%d/%d", r.Shed, len(r.Outcomes)),
			fmtMin(r.MeanQueue), fmtMin(r.P50Resolution), fmtMin(r.P95Resolution), fmtMin(r.P99Resolution),
			eval.Pct(r.MitigatedRate), fmt.Sprintf("%.2f", r.Utilization), fmtMin(r.Drain))
	}
	return t
}

func fmtMin(d time.Duration) string { return fmt.Sprintf("%.1f", d.Minutes()) }
