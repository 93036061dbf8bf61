package harness

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
	"repro/internal/tools"
)

// ObservedRunner is a Runner that can emit the structured session event
// stream while it works. All three harness runners implement it; Run is
// RunObserved with a nil observer, so un-instrumented callers are
// unaffected.
type ObservedRunner interface {
	Runner
	RunObserved(in *scenarios.Instance, seed int64, o obs.Observer) Result
}

// emitStart opens a session in the event stream: one event carrying the
// scenario, the trial seed, and the simulated clock at hand-off.
func emitStart(o obs.Observer, in *scenarios.Instance, seed int64) {
	obs.Emit(o, obs.Event{
		Type: obs.EvSessionStart, At: in.World.Clock.Now(),
		Scenario: in.Scenario.Name(), Seed: seed,
	})
}

// emitEnd closes a session with the outcome summary the metrics layer
// aggregates (§3 bookkeeping: TTM, mistakes, usage, dollars). TTM is the
// penalized value — unmitigated incidents carry the specialist hand-off
// penalty — matching how every evaluation statistic treats it.
func emitEnd(o obs.Observer, in *scenarios.Instance, res Result) {
	obs.Emit(o, obs.Event{
		Type: obs.EvSessionEnd, At: in.World.Clock.Now(),
		Scenario: in.Scenario.Name(),
		Outcome: &obs.SessionOutcome{
			Mitigated:   res.Mitigated,
			Escalated:   res.Escalated,
			Correct:     res.Correct,
			TTMMinutes:  res.PenalizedTTM().Minutes(),
			Rounds:      res.Rounds,
			ToolCalls:   res.ToolCalls,
			LLMCalls:    res.LLMCalls,
			Tokens:      res.Tokens,
			Wrong:       res.Wrong,
			Secondary:   res.Secondary,
			PlanErrors:  res.PlanErrors,
			Retries:     res.Retries,
			Quarantined: res.Quarantined,
			CostUSD:     res.CostUSD,
		},
	})
}

// observedTool decorates a tool so every invocation lands in the event
// stream with its disposition. The harness wraps the one-shot and
// control toolboxes this way (outermost, after fault injection, so
// injected faults are visible); the iterative helper's core session
// emits richer tool events itself — including retries and breaker trips
// — so its registry is left unwrapped to avoid double counting.
type observedTool struct {
	tools.Tool
	o obs.Observer
}

// Invoke implements tools.Tool.
func (t *observedTool) Invoke(w *netsim.World, args map[string]string) (tools.Result, error) {
	res, err := t.Tool.Invoke(w, args)
	disposition := "ok"
	switch {
	case err != nil:
		disposition = "error"
	case res.Degraded:
		disposition = "degraded"
	}
	obs.Emit(t.o, obs.Event{
		Type: obs.EvToolCall, At: w.Clock.Now(),
		Tool: t.Name(), Disposition: disposition, Latency: t.Latency(),
	})
	return res, err
}

// observeRegistry rebuilds a registry with every tool wrapped for event
// emission, preserving team ownership. A nil observer returns the
// registry untouched.
func observeRegistry(reg *tools.Registry, o obs.Observer) *tools.Registry {
	if o == nil {
		return reg
	}
	out := tools.NewRegistry()
	for _, name := range reg.Names() {
		t, _ := reg.Get(name)
		if err := out.Register(reg.Owner(name), &observedTool{Tool: t, o: o}); err != nil {
			// Re-registering the source's own (name, team) pairs into a
			// fresh registry cannot conflict.
			panic(err)
		}
	}
	return out
}

// BuildAndRunObserved is BuildAndRun with an observer: runners that
// implement ObservedRunner stream events into o; plain runners fall back
// to the unobserved path.
func BuildAndRunObserved(r Runner, sc scenarios.Scenario, seed int64, o obs.Observer) Result {
	in := sc.Build(randsrc.New(seed))
	if or, ok := r.(ObservedRunner); ok && o != nil {
		return or.RunObserved(in, seed, o)
	}
	return r.Run(in, seed)
}

// RunPoolObserved is RunPool with per-trial event capture: each trial
// buffers its events in a private Recorder (no cross-worker contention),
// and the recorders are absorbed into the sink in trial order — so the
// event log and the metric aggregates are byte-identical at every worker
// count. A nil sink degrades to RunPool exactly.
func RunPoolObserved(sc scenarios.Scenario, r Runner, n, workers int, seed int64, sink *obs.Sink) []parallel.TrialResult[Result] {
	if sink == nil {
		return RunPool(sc, r, n, workers, seed)
	}
	recs := make([]*obs.Recorder, n)
	trials := parallel.RunTrials(n, workers, seed, func(s int64, i int) Result {
		rec := obs.AcquireRecorder(fmt.Sprintf("%s/%04d", sc.Name(), i))
		recs[i] = rec
		return BuildAndRunObserved(r, sc, s, rec)
	})
	for _, rec := range recs {
		sink.Absorb(rec)
		rec.Release()
	}
	return trials
}
