package experiments

// E17 — sharded multi-region fleet at hyperscale (extension): E14
// established the offered-load knee for one responder pool; real
// providers run many regional pools that fail together (correlated
// storms) and borrow from each other when one saturates. E17 runs the
// sharded scheduler — per-region severity-classed engines, batched
// discrete-event dispatch, deterministic cross-region work stealing —
// across a grid of (region fan-out × per-region offered load) at
// 10^5-10^6 total arrivals per cell, with storm-correlated arrivals
// (a primary incident echoing into other regions within minutes).
//
// Expected shape: at a fixed per-region rate, wider fan-outs sustain
// the same per-region knee — regions are near-independent and the
// steal pass only helps — while storms push transient overload into
// neighbours, which shows up as stolen counts rather than sheds until
// every pool saturates at once. The assisted arm's shorter sessions
// again buy rungs of headroom over the unassisted arm, now multiplied
// across the fleet. Tables are byte-identical at any worker count:
// the determinism contract at hyperscale.

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// e17Regions and e17Rates define the ladder grid: region fan-out by
// per-region offered load (arrivals/hour).
// The rungs bracket both arms' per-region capacity (3 OCEs at ~37m
// assisted / ~105m unassisted mean occupancy ≈ 4.9 and 1.7 arr/h): the
// bottom rung is sustainable for everyone, the top for no one, and the
// middle rungs are where storms saturate one region while a neighbour
// still has headroom — the steal regime.
var (
	e17Regions = []int{1, 4, 16}
	e17Rates   = []float64{1, 2, 4, 8}
)

// e17KneeP99 bounds "sustained", as in E14: one on-call shift. Unlike
// E14's single quiet pool, a storm-correlated fleet almost never sheds
// exactly zero — a burst can outrun even an idle fleet's admission
// bound — so the shed criterion is an SLO, not an absolute: 99.5% of
// arrivals admitted.
const (
	e17KneeP99     = 8 * time.Hour
	e17KneeShedTol = 0.005
)

// e17Sustained reports whether a cell is below the saturation knee.
func e17Sustained(rep *fleet.ShardedReport) bool {
	tot := rep.Total
	return float64(tot.Shed) <= e17KneeShedTol*float64(len(tot.Outcomes)) &&
		tot.P99Resolution <= e17KneeP99
}

// e17PerCell is the arrival count per grid cell, per unit of
// Params.Trials — sized so the default reaches 10^5 arrivals per cell
// and the full ladder crosses 10^6.
const e17PerCell = 5000

// e17Scenario is a synthetic flat incident class: E17 measures the
// scheduler at hyperscale, so world construction must cost one
// severity draw, not a topology build.
type e17Scenario struct{}

func (e17Scenario) Name() string           { return "shardload" }
func (e17Scenario) RootCauseClass() string { return "synthetic" }
func (e17Scenario) Build(rng *rand.Rand) *scenarios.Instance {
	return &scenarios.Instance{Incident: &incident.Incident{Severity: rng.Intn(4)}, Scenario: e17Scenario{}}
}

// e17Runner draws a session outcome from (base, spread, mitigation
// rate) — the assisted/unassisted TTM gap in closed form, seeded per
// incident like every real runner.
type e17Runner struct {
	label    string
	base     time.Duration
	spread   time.Duration
	mitigate float64
}

func (r e17Runner) Name() string { return r.label }
func (r e17Runner) Run(in *scenarios.Instance, seed int64) harness.Result {
	rng := randsrc.New(seed)
	ttm := r.base + time.Duration(rng.ExpFloat64()*float64(r.spread))
	mit := rng.Float64() < r.mitigate
	return harness.Result{Scenario: in.Scenario.Name(), Mitigated: mit, Escalated: !mit, TTM: ttm}
}

// e17Config is the fleet every cell runs: 3 OCEs per region, a bounded
// queue, stealing on, and a correlated storm process — the same
// arrival draw per cell across arms (paired comparison).
func e17Config(regions int, rate float64, p Params, r harness.Runner) fleet.ShardedConfig {
	names := make([]string, regions)
	for i := range names {
		names[i] = fmt.Sprintf("r%02d", i)
	}
	return fleet.ShardedConfig{
		Regions: names, OCEs: 3, ArrivalsPerHour: rate,
		Incidents:  p.Trials * e17PerCell,
		QueueLimit: 8, Steal: true,
		Storm:   scenarios.StormConfig{Correlation: 0.25, MaxFanout: 3, Window: 15 * time.Minute},
		Mix:     []scenarios.Scenario{e17Scenario{}},
		Runner:  r,
		Seed:    p.Seed + 171,
		Workers: p.Workers,
		Obs:     p.Obs,
	}
}

// E17ShardedFleet sweeps the (fan-out × offered load) grid over the
// sharded scheduler and tabulates shed, stolen, queue wait and
// resolution tails per arm, plus each fan-out's saturation knee.
func E17ShardedFleet(p Params) []*eval.Table {
	p = p.withDefaults()
	arms := []harness.Runner{
		e17Runner{label: "assisted-helper", base: 12 * time.Minute, spread: 25 * time.Minute, mitigate: 0.92},
		e17Runner{label: "unassisted-oce", base: 35 * time.Minute, spread: 70 * time.Minute, mitigate: 0.72},
	}

	// Cells run serially: each sharded simulation is already parallel
	// inside (and byte-identical at any worker count), so rows and the
	// shared sink accumulate in deterministic grid order.
	ladder := eval.NewTable(fmt.Sprintf("E17 (extension): sharded multi-region ladder — %d arrivals/cell, 3 OCEs/region, queue bound 8, stealing on, storm corr 0.25",
		p.Trials*e17PerCell),
		"regions", "arr/h/region", "arm", "shed", "stolen", "meanQueue(m)", "p50Res(m)", "p99Res(m)", "mitigated", "util")
	type cellKey struct {
		regions int
		arm     string
	}
	reports := map[cellKey][]*fleet.ShardedReport{}
	for _, nr := range e17Regions {
		for _, rate := range e17Rates {
			for _, arm := range arms {
				rep := fleet.SimulateSharded(e17Config(nr, rate, p, arm))
				k := cellKey{nr, arm.Name()}
				reports[k] = append(reports[k], rep)
				tot := rep.Total
				ladder.AddRow(nr, rate, arm.Name(),
					fmt.Sprintf("%d/%d", tot.Shed, len(tot.Outcomes)), rep.Stolen,
					tot.MeanQueue.Minutes(), tot.P50Resolution.Minutes(), tot.P99Resolution.Minutes(),
					eval.Pct(tot.MitigatedRate), fmt.Sprintf("%.2f", tot.Utilization))
			}
		}
	}

	knee := eval.NewTable(fmt.Sprintf("E17: saturation knee per fan-out — highest per-region load shedding under %.1f%% with P99 resolution under %.0fm",
		e17KneeShedTol*100, e17KneeP99.Minutes()),
		"regions", "arm", "knee(arr/h/region)", "p99Res at knee(m)")
	for _, nr := range e17Regions {
		for _, arm := range arms {
			reps := reports[cellKey{nr, arm.Name()}]
			rate, rep := 0.0, (*fleet.ShardedReport)(nil)
			for i, r := range reps {
				if e17Sustained(r) {
					rate, rep = e17Rates[i], r
				}
			}
			if rep == nil {
				knee.AddRow(nr, arm.Name(), "none", "-")
				continue
			}
			knee.AddRow(nr, arm.Name(), rate, rep.Total.P99Resolution.Minutes())
		}
	}
	return []*eval.Table{ladder, knee}
}
