// Package aiops is the public face of this repository: a faithful,
// fully-simulated implementation of the OCE-helper framework from "A
// Holistic View of AI-driven Network Incident Management" (HotNets '23),
// together with everything needed to reproduce the paper's arguments —
// a cloud network simulator, telemetry, an incident scenario library
// (including the Casc-1 and AWS Direct Connect Tokyo reconstructions), a
// simulated LLM, one-shot and human baselines, and the §3 evaluation
// machinery (A/B tests, historical replay, cost accounting).
//
// Quickstart:
//
//	sys := aiops.New(aiops.WithSeed(7))
//	in, _ := sys.Spawn("cascade-5", 7)
//	res := sys.Assist(in, 7)
//	fmt.Println(res.Mitigated, res.TTM)
//
// The System type bundles a knowledge base, an incident history and the
// helper configuration; the Spawn/Assist/OneShot/Unassisted methods run
// the three predictor designs over freshly generated incidents, and
// ABTest/Replay run the paper's evaluation protocols.
package aiops

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

// Re-exported core types, so downstream users rarely need the internal
// import paths.
type (
	// Result is the uniform per-incident outcome.
	Result = harness.Result
	// Instance is a generated incident: live world plus report.
	Instance = scenarios.Instance
	// Scenario generates one incident class.
	Scenario = scenarios.Scenario
	// Incident is the report handed to responders.
	Incident = incident.Incident
	// Action is one mitigation step.
	Action = mitigation.Action
	// Plan is an ordered mitigation proposal.
	Plan = mitigation.Plan
	// HelperConfig tunes the iterative helper (beam, risk budget,
	// pre-approval, in-context rules...).
	HelperConfig = core.Config
	// ABResult is a randomized-trial outcome.
	ABResult = eval.ABResult
	// ReplayReport aggregates a historical replay run.
	ReplayReport = replayer.Report
	// World is the live simulated network.
	World = netsim.World
	// KnowledgeBase is the versioned operator knowledge store.
	KnowledgeBase = kb.KB
	// InContextRule carries a knowledge update inside prompts.
	InContextRule = llm.InContextRule
	// FaultConfig tunes deterministic fault injection on the toolbox and
	// mitigation automation (zero value: no faults).
	FaultConfig = faults.Config
	// FaultWeights distributes injected faults across classes.
	FaultWeights = faults.Weights
	// ResilienceConfig tunes the helper's resilient invocation path
	// (retries, circuit breaking, evidence quarantine).
	ResilienceConfig = core.ResilienceConfig
	// SessionTrace is the structured session audit log (typed events;
	// String() renders the classic CLI trace).
	SessionTrace = core.SessionTrace
	// PostmortemReport is the structured incident review (String()
	// renders the classic markdown document).
	PostmortemReport = core.PostmortemReport
	// Event is one structured observability event.
	Event = obs.Event
	// Observer receives observability events.
	Observer = obs.Observer
	// Sink collects events and metric aggregates for -trace-out /
	// -metrics-out style export; build one with NewSink.
	Sink = obs.Sink
)

// Event types, re-exported so facade users can filter an event stream
// without importing the internal obs package.
const (
	EvSessionStart     = obs.EvSessionStart
	EvSessionEnd       = obs.EvSessionEnd
	EvHypothesis       = obs.EvHypothesis
	EvHypothesisTested = obs.EvHypothesisTested
	EvLLMCall          = obs.EvLLMCall
	EvToolCall         = obs.EvToolCall
	EvMitigation       = obs.EvMitigation
	EvFleetIncident    = obs.EvFleetIncident
)

// NewSink builds an observability sink over the standard metrics
// registry that keeps the full event log; pass it to WithObservability
// and export with WriteEvents / WriteMetrics when the run completes.
func NewSink() *Sink { return obs.NewLogSink() }

// System bundles a deployment's knowledge, incident history and helper
// configuration.
type System struct {
	kbase         *kb.KB
	history       *kb.History
	cfg           core.Config
	expertise     float64
	hallucination float64
	window        int
	generic       bool // use the generic embedder instead of the domain one
	seed          int64
	workers       int // parallel trial workers for ABTest/Replay (<= 0: GOMAXPROCS)
	faultCfg      faults.Config
	sink          *obs.Sink
}

// Option configures a System.
type Option func(*System)

// WithSeed sets the base seed used by GenerateHistory and convenience
// methods.
func WithSeed(seed int64) Option { return func(s *System) { s.seed = seed } }

// WithHelperConfig overrides the helper configuration.
func WithHelperConfig(cfg core.Config) Option { return func(s *System) { s.cfg = cfg } }

// WithStaleKnowledge pins the knowledge base to version 1 — the "stale
// iterative helper" of the paper's Fig. 3: it predates the fastpath
// protocol rollout.
func WithStaleKnowledge() Option {
	return func(s *System) { s.kbase = kb.Default() }
}

// WithExpertise sets the in-the-loop OCE expertise (default 0.9).
func WithExpertise(e float64) Option { return func(s *System) { s.expertise = e } }

// WithHallucination sets the simulated model's hallucination rate.
func WithHallucination(rate float64) Option { return func(s *System) { s.hallucination = rate } }

// WithContextWindow overrides the model's context window in tokens.
func WithContextWindow(tokens int) Option { return func(s *System) { s.window = tokens } }

// WithGenericEmbeddings makes retrieval use the generic (non-network)
// embedder — the §4.4 contrast.
func WithGenericEmbeddings() Option { return func(s *System) { s.generic = true } }

// WithWorkers bounds the parallel trial pool ABTest and Replay run on
// (<= 0, the default, means one worker per CPU). Worker count never
// changes results — only wall-clock time.
func WithWorkers(n int) Option { return func(s *System) { s.workers = n } }

// WithFaults enables deterministic fault injection: every toolbox
// invocation (and mitigation action, when ActionRate > 0) draws from a
// seed-derived fault schedule. The zero config keeps every run
// byte-identical to a fault-free build. An invalid config — any
// probability outside [0,1] — panics immediately: out-of-range rates
// used to be silently capped by the injector, producing tables for a
// configuration that never existed.
func WithFaults(fc FaultConfig) Option {
	if err := fc.Validate(); err != nil {
		panic("aiops.WithFaults: " + err.Error())
	}
	return func(s *System) { s.faultCfg = fc }
}

// WithObservability streams every session's structured events (and the
// derived metric aggregates) into the sink across all of the system's
// entry points — Assist, OneShot, Unassisted, ABTest, Replay, Fleet,
// Trace, Postmortem. A nil sink (the default) is a true no-op: results
// and rendered output are byte-identical with or without it, at every
// worker count.
func WithObservability(sink *Sink) Option { return func(s *System) { s.sink = sink } }

// WithResilientHelper switches the helper onto the resilient invocation
// path — capped-backoff retries, per-tool circuit breaking with reroute
// to the monitor cross-check, and evidence quarantine — using the tuned
// defaults. Combine with WithFaults to measure what resilience buys.
func WithResilientHelper() Option {
	return func(s *System) { s.cfg.Resilience = core.DefaultResilience() }
}

// New builds a System with current knowledge (base corpus + the fastpath
// rollout update) and an empty incident history.
func New(opts ...Option) *System {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	s := &System{
		kbase:     kbase,
		history:   kb.NewHistory(),
		cfg:       core.DefaultConfig(),
		expertise: 0.9,
	}
	for _, o := range opts {
		o(s)
	}
	if s.history == nil {
		s.history = kb.NewHistory()
	}
	return s
}

// KB exposes the system's knowledge base (e.g. to apply updates).
func (s *System) KB() *kb.KB { return s.kbase }

// History exposes the incident history store.
func (s *System) History() *kb.History { return s.history }

// ScenarioNames lists the incident classes the library can generate.
func (s *System) ScenarioNames() []string {
	var out []string
	for _, sc := range scenarios.All() {
		out = append(out, sc.Name())
	}
	return out
}

// Spawn generates a fresh incident of the named class.
func (s *System) Spawn(name string, seed int64) (*Instance, error) {
	sc := scenarios.ByName(name)
	if sc == nil {
		return nil, fmt.Errorf("aiops: unknown scenario %q (have %v)", name, s.ScenarioNames())
	}
	return sc.Build(randsrc.New(seed)), nil
}

// GenerateHistory populates the incident history with n historical
// incidents resolved by simulated unassisted operators (the training
// corpus for the one-shot baseline and the replay substrate).
func (s *System) GenerateHistory(n int, seed int64) {
	c := replayer.Generate(replayer.Options{N: n, Seed: seed, KBase: s.kbase})
	for _, rec := range c.History.All() {
		s.history.Add(rec)
	}
}

func (s *System) embedder() embed.Embedder {
	if s.generic {
		return embed.NewHashEmbedder(128)
	}
	return embed.NewDomainEmbedder(128)
}

// RunnerKind names the three predictor designs a System can construct.
type RunnerKind string

// Runner kinds.
const (
	// RunnerHelper is the paper's iterative OCE-helper.
	RunnerHelper RunnerKind = "helper"
	// RunnerOneShot is the retrieval-based one-shot baseline.
	RunnerOneShot RunnerKind = "one-shot"
	// RunnerControl is the unassisted control OCE.
	RunnerControl RunnerKind = "control"
)

// Runner constructs the named predictor, fully configured from the
// System's options (knowledge, history, faults, helper config). This is
// the single place runner wiring lives: every System entry point —
// Assist, Unassisted, ABTest, Fleet... — builds its arms here, so an
// option such as WithFaults reaches all of them consistently. Unknown
// kinds return nil.
func (s *System) Runner(kind RunnerKind) harness.Runner {
	switch kind {
	case RunnerHelper:
		return s.helperRunner()
	case RunnerOneShot:
		return &harness.OneShotRunner{History: s.history, KBase: s.kbase, Embedder: s.embedder(), Faults: s.faultCfg}
	case RunnerControl:
		return &harness.ControlRunner{KBase: s.kbase, Expertise: 0.8, History: s.history, Faults: s.faultCfg}
	default:
		return nil
	}
}

func (s *System) helperRunner() *harness.HelperRunner {
	return &harness.HelperRunner{
		KBase:         s.kbase,
		Config:        s.cfg,
		Expertise:     s.expertise,
		Hallucination: s.hallucination,
		Window:        s.window,
		History:       s.history,
		Faults:        s.faultCfg,
	}
}

// run drives one configured runner over one incident, streaming events
// into the system's sink when observability is on.
func (s *System) run(kind RunnerKind, in *Instance, seed int64) Result {
	r := s.Runner(kind)
	if s.sink != nil {
		if or, ok := r.(harness.ObservedRunner); ok {
			return or.RunObserved(in, seed, s.sink)
		}
	}
	return r.Run(in, seed)
}

// Assist runs the paper's iterative helper on the incident.
func (s *System) Assist(in *Instance, seed int64) Result {
	return s.run(RunnerHelper, in, seed)
}

// OneShot runs the retrieval-based one-shot baseline (train it first
// with GenerateHistory).
func (s *System) OneShot(in *Instance, seed int64) Result {
	return s.run(RunnerOneShot, in, seed)
}

// Unassisted runs the helper-free control OCE.
func (s *System) Unassisted(in *Instance, seed int64) Result {
	return s.run(RunnerControl, in, seed)
}

// ABTest runs §3's randomized trial: n incidents randomly assigned to the
// helper-assisted arm or the unassisted control arm.
func (s *System) ABTest(n int, seed int64) *ABResult {
	return eval.ABTest(eval.ABConfig{N: n, Seed: seed, Workers: s.workers, Obs: s.sink},
		s.Runner(RunnerHelper),
		s.Runner(RunnerControl),
	)
}

// Replay generates a historical corpus of size n and replays it through
// the helper, reporting §3's replay metrics (TTM savings over matching
// incidents, mismatch fraction, conditional estimates).
func (s *System) Replay(n int, seed int64) *ReplayReport {
	c := replayer.Generate(replayer.Options{N: n, Seed: seed, KBase: s.kbase})
	runner := s.helperRunner()
	runner.History = c.History
	return replayer.ReplayObserved(c, runner, s.workers, s.sink)
}

// Trace runs the helper on the incident and returns the structured
// session trace (Fig. 1 in action) alongside the result. The trace
// prints as the classic audit log (it implements fmt.Stringer) and
// carries the full typed event stream for programmatic use.
func (s *System) Trace(in *Instance, seed int64) (Result, SessionTrace) {
	res, out := s.runSession(in, seed)
	return res, core.NewSessionTrace(out)
}

// Postmortem runs the helper on the incident and returns the result with
// a structured incident review (timeline, deduction chain, costs,
// follow-ups). The report prints as the classic markdown document.
func (s *System) Postmortem(in *Instance, seed int64) (Result, *PostmortemReport) {
	res, out := s.runSession(in, seed)
	return res, core.NewPostmortem(in.Incident, out)
}

func (s *System) runSession(in *Instance, seed int64) (Result, *core.Outcome) {
	model := llm.NewSimLLM(s.kbase, seed)
	model.HallucinationRate = s.hallucination
	if s.window > 0 {
		model.Window = s.window
	}
	var o obs.Observer
	if s.sink != nil {
		o = s.sink
	}
	return harness.RunSession(model, s.kbase, s.cfg, s.expertise, s.history, in, seed, o)
}

// FleetReport re-exports the fleet-level operations report.
type FleetReport = fleet.Report

// Fleet simulates incident operations at fleet scale: n incidents arrive
// as a Poisson process at the given hourly rate over a pool of
// responders, each handled by this system's helper in arrival order
// (FIFO, unbounded queue). Compare with FleetUnassisted to see queueing
// amplification (experiment E10).
func (s *System) Fleet(oces int, arrivalsPerHour float64, n int, seed int64) *FleetReport {
	return fleet.Simulate(fleet.Config{
		OCEs: oces, ArrivalsPerHour: arrivalsPerHour, Incidents: n, Seed: seed,
		Runner: s.Runner(RunnerHelper), Obs: s.sink, Policy: fleet.FIFO, QueueLimit: 0,
	})
}

// FleetUnassisted is Fleet with the helper-free control OCE pool.
func (s *System) FleetUnassisted(oces int, arrivalsPerHour float64, n int, seed int64) *FleetReport {
	return fleet.Simulate(fleet.Config{
		OCEs: oces, ArrivalsPerHour: arrivalsPerHour, Incidents: n, Seed: seed,
		Runner: s.Runner(RunnerControl), Obs: s.sink, Policy: fleet.FIFO, QueueLimit: 0,
	})
}

// SaveHistory writes the incident history as JSON.
func (s *System) SaveHistory(w io.Writer) error { return s.history.SaveJSON(w) }

// LoadHistory merges JSON incident records (as written by SaveHistory)
// into the system's history.
func (s *System) LoadHistory(r io.Reader) error { return s.history.LoadJSON(r) }
