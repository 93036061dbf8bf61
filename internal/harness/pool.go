package harness

import (
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// BuildAndRun is the unit of work the parallel trial runner schedules:
// construct the trial's private incident instance from the seed and
// drive the runner over it. Every call builds its own world, model, and
// toolbox; concurrent calls share only immutable inputs (the runner's
// knowledge base and frozen history).
func BuildAndRun(r Runner, sc scenarios.Scenario, seed int64) Result {
	return r.Run(sc.Build(randsrc.New(seed)), seed)
}

// RunPool executes n independent trials of sc through r on a bounded
// worker pool (workers <= 0 means GOMAXPROCS). Trial i uses
// parallel.DeriveSeed(seed, i), so the returned slice — order, seeds,
// and results — is identical for every worker count.
func RunPool(sc scenarios.Scenario, r Runner, n, workers int, seed int64) []parallel.TrialResult[Result] {
	return parallel.RunTrials(n, workers, seed, func(s int64, _ int) Result {
		return BuildAndRun(r, sc, s)
	})
}

// PoolResult converts one pooled trial into a Result, mapping a panicked
// trial onto an escalation (the specialist hand-off an operator would
// make when tooling crashes mid-incident) with the plan error counted,
// so aggregate statistics stay defined and deterministic.
func PoolResult(sc scenarios.Scenario, tr parallel.TrialResult[Result]) Result {
	if tr.Err == nil {
		return tr.Value
	}
	return Result{Scenario: sc.Name(), Escalated: true, PlanErrors: 1}
}
