package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

// sessionRunners are the three arms a benchgen experiment cell rotates
// through: the assisted helper, the one-shot baseline over a history of
// past incidents, and the unassisted control.
type sessionRunners [3]harness.ObservedRunner

func newSessionRunners(seed int64, history int, tr *tracer) sessionRunners {
	helper := newAssistedRunner()
	rs := sessionRunners{
		helper,
		&harness.OneShotRunner{
			Label:   "one-shot",
			History: replayer.Generate(replayer.Options{N: history, Seed: seed}).History,
			KBase:   helper.KBase,
		},
		&harness.ControlRunner{Label: "unassisted-oce", KBase: helper.KBase},
	}
	if tr != nil {
		for i, r := range rs {
			rs[i] = tr.wrapRunner(r).(harness.ObservedRunner)
		}
	}
	return rs
}

// run builds and runs session i, folding its events into reg.
func (rs sessionRunners) run(seed int64, i int, reg *obs.Registry) (harness.Result, error) {
	spec := sessionAt(seed, i)
	sc := scenarios.All()[spec.Scenario]
	in := sc.Build(rand.New(rand.NewSource(spec.Seed)))
	in.Incident.ID = fmt.Sprintf("ss-%06d", i)
	rec := obs.AcquireRecorder(in.Incident.ID)
	res := rs[spec.Runner].RunObserved(in, spec.Seed, rec)
	for _, ev := range rec.Events {
		obs.Collect(reg, ev)
	}
	rec.Release()
	if res.Scenario != sc.Name() {
		return res, fmt.Errorf("session %d: result for scenario %q, want %q", i, res.Scenario, sc.Name())
	}
	if res.TTM <= 0 || (res.Mitigated && res.Escalated) {
		return res, fmt.Errorf("session %d (%s): TTM %v, mitigated %v, escalated %v",
			i, sc.Name(), res.TTM, res.Mitigated, res.Escalated)
	}
	return res, nil
}

// runBatch runs sessions [from, from+n) on workers pool workers and
// returns their results and host times.
func (rs sessionRunners) runBatch(seed int64, from, n, workers int, reg *obs.Registry) ([]harness.Result, []time.Duration, []error) {
	type out struct {
		res harness.Result
		err error
	}
	trials := parallel.RunTrials(n, workers, seed, func(_ int64, j int) out {
		res, err := rs.run(seed, from+j, reg)
		return out{res, err}
	})
	results := make([]harness.Result, n)
	times := make([]time.Duration, n)
	errs := make([]error, n)
	for j, tr := range trials {
		results[j], times[j], errs[j] = tr.Value.res, tr.Elapsed, tr.Value.err
		if tr.Err != nil {
			errs[j] = tr.Err
		}
	}
	return results, times, errs
}

// runSessions is the batch-session workload: a benchgen experiment cell
// without the service. Each session builds its scenario and runs one of
// the three runners, on nproc pool workers. netsim, llm, tools,
// telemetry, risk, embed and scenarios do almost all the work; journal,
// lake, gateway and fleet do none. Unit operation: one session.
func runSessions(e *env) (*result, error) {
	p := e.p
	res := newResult()
	var rs sessionRunners
	for r := 0; r < p.setupReps; r++ {
		t0 := time.Now()
		rs = newSessionRunners(e.seed, p.history, e.tr)
		res.setups = append(res.setups, time.Since(t0))
	}
	reg := obs.NewAIOpsRegistry()

	pr, err := e.probe()
	if err != nil {
		return nil, err
	}
	var first []harness.Result
	var times []time.Duration
	cpu0, t0, rss := cpuTime(), time.Now(), startRSS()
	deadline := t0.Add(p.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n += p.batch {
		results, ts, errs := rs.runBatch(e.seed, n, p.batch, e.clients, reg)
		ss := make([]opSample, len(errs))
		for j, err := range errs {
			ss[j].err = err
		}
		e.count(ss)
		times = append(times, ts...)
		if n == 0 {
			first = results
		}
	}
	elapsed := time.Since(t0)
	res.cpuPerOp = ms(cpuTime()-cpu0) / float64(len(times))
	res.rssMB = rss.median()
	res.lat = msOf(times)
	res.tput = float64(len(times)) / elapsed.Seconds()
	res.digest = digestJSON(first)
	res.checks["sessions"] = len(times)

	// The first batch again, on one worker: same results, any workers.
	again, _, _ := rs.runBatch(e.seed, 0, p.batch, 1, obs.NewAIOpsRegistry())
	if digestJSON(again) != res.digest {
		e.chk.failf("the first %d sessions differ between %d workers and 1", p.batch, e.clients)
	}

	if pr != nil {
		if err := pr.finish(int64(len(times)), res.layers); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		scrapeLayers([]scrape{parseMetrics(buf.Bytes())}, res.layers)
	}
	return res, nil
}

// syntheticScenario and syntheticRunner are E17's closed-form session
// model (internal/experiments/shard.go): world construction is one
// severity draw and a session one TTM draw, so the fleet engine does
// all the work.
type syntheticScenario struct{}

func (syntheticScenario) Name() string           { return "shardload" }
func (syntheticScenario) RootCauseClass() string { return "synthetic" }
func (syntheticScenario) Build(rng *rand.Rand) *scenarios.Instance {
	return &scenarios.Instance{Incident: &incident.Incident{Severity: rng.Intn(4)}, Scenario: syntheticScenario{}}
}

// syntheticRunner draws E17's assisted-arm outcome: TTM 12m plus an
// exponential 25m spread, mitigated 92% of the time.
type syntheticRunner struct{}

func (syntheticRunner) Name() string { return "assisted-helper" }
func (syntheticRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	rng := rand.New(rand.NewSource(seed))
	ttm := 12*time.Minute + time.Duration(rng.ExpFloat64()*float64(25*time.Minute))
	mit := rng.Float64() < 0.92
	return harness.Result{Scenario: in.Scenario.Name(), Mitigated: mit, Escalated: !mit, TTM: ttm}
}

// fleetConfig is one E17 cell at the stealing regime: 3 responders per
// region, queue bound 8, stealing on, 2 arrivals/h/region, storm
// correlation 0.25.
func fleetConfig(regionCount, arrivals, workers int, seed int64) fleet.ShardedConfig {
	names := make([]string, regionCount)
	for i := range names {
		names[i] = fmt.Sprintf("r%02d", i)
	}
	return fleet.ShardedConfig{
		Regions: names, OCEs: 3, ArrivalsPerHour: arrivalsPerHourPerRegion,
		Incidents: arrivals, QueueLimit: 8, Steal: true,
		Storm:   scenarios.StormConfig{Correlation: 0.25, MaxFanout: 3, Window: 15 * time.Minute},
		Mix:     []scenarios.Scenario{syntheticScenario{}},
		Runner:  syntheticRunner{},
		Seed:    seed,
		Workers: workers,
	}
}

// checkFleet checks a sharded report's accounting.
func checkFleet(rep *fleet.ShardedReport, arrivals int) error {
	tot := rep.Total
	n, in, out := 0, 0, 0
	for _, r := range rep.Regions {
		n += len(r.Outcomes)
		in += r.StolenIn
		out += r.StolenOut
	}
	switch {
	case len(tot.Outcomes) != arrivals:
		return fmt.Errorf("fleet: %d outcomes for %d arrivals", len(tot.Outcomes), arrivals)
	case tot.Admitted+tot.Shed != arrivals:
		return fmt.Errorf("fleet: admitted %d + shed %d != %d arrivals", tot.Admitted, tot.Shed, arrivals)
	case n != arrivals:
		return fmt.Errorf("fleet: regions hold %d of %d arrivals", n, arrivals)
	case in != rep.Stolen || out != rep.Stolen:
		return fmt.Errorf("fleet: %d steals, %d in, %d out", rep.Stolen, in, out)
	}
	return nil
}

// fleetWarmupRun is the run index the set-up's warm-up run derives its
// seed from, apart from the measured runs 0, 1, 2, ...
const fleetWarmupRun = 1 << 30

// runFleet is the fleet-scale workload: fleet.SimulateSharded over 16
// regions with E17's synthetic sessions, so the fleet engine does all
// the work and sessions none — the E17 hot path. Runs repeat with
// seeds derived from the benchmark seed. Unit operation: one run for
// latency, one arrival for throughput and CPU.
func runFleet(e *env) (*result, error) {
	p := e.p
	res := newResult()
	for r := 0; r < p.setupReps; r++ {
		t0 := time.Now()
		rep := fleet.SimulateSharded(fleetConfig(p.fleetRegions, p.fleetWarmup, e.clients, parallel.DeriveSeed(e.seed, fleetWarmupRun)))
		if err := checkFleet(rep, p.fleetWarmup); err != nil {
			e.chk.failf("warm-up: %v", err)
		}
		res.setups = append(res.setups, time.Since(t0))
	}

	pr, err := e.probe()
	if err != nil {
		return nil, err
	}
	var runs []time.Duration
	var first *fleet.ShardedReport
	cpu0, t0, rss := cpuTime(), time.Now(), startRSS()
	deadline := t0.Add(p.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		r0 := time.Now()
		rep := fleet.SimulateSharded(fleetConfig(p.fleetRegions, p.fleetArrivals, e.clients, parallel.DeriveSeed(e.seed, k)))
		runs = append(runs, time.Since(r0))
		err := checkFleet(rep, p.fleetArrivals)
		e.count([]opSample{{err: err}})
		if k == 0 {
			first = rep
		}
	}
	elapsed := time.Since(t0)
	arrivals := len(runs) * p.fleetArrivals
	res.cpuPerOp = ms(cpuTime()-cpu0) / float64(arrivals)
	res.rssMB = rss.median()
	res.lat = msOf(runs)
	res.tput = float64(arrivals) / elapsed.Seconds()
	sum := gateway.NewShardedDrainSummary(first)
	res.digest = digestJSON(sum)
	res.checks["runs"] = len(runs)
	res.checks["fleet_arrivals_per_s"] = res.tput

	// The first run again, on one worker: same report, any workers.
	again := fleet.SimulateSharded(fleetConfig(p.fleetRegions, p.fleetArrivals, 1, parallel.DeriveSeed(e.seed, 0)))
	if digestJSON(gateway.NewShardedDrainSummary(again)) != res.digest {
		e.chk.failf("the first fleet run differs between %d workers and 1", e.clients)
	}

	if pr != nil {
		if err := pr.finish(int64(arrivals), res.layers); err != nil {
			return nil, err
		}
		drainLayers([]gateway.DrainSummary{sum}, res.layers)
	}
	return res, nil
}
