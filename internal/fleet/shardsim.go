package fleet

// SimulateSharded: the closed-form (pre-drawn) multi-region fleet
// simulation. It differs from Simulate only in phase 1, the arrival
// draw: a merged Poisson process at R × ArrivalsPerHour routed
// uniformly across regions, plus correlated storm echoes (same scenario
// class landing in other regions within the storm window —
// scenarios.StormConfig). Arrival i's (time, region, scenario, session
// seed) is a pure function of (seed, i). Phases 2 and 3 are shared with
// Simulate (fleet.go).

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// ShardedConfig parameterizes a sharded fleet simulation.
type ShardedConfig struct {
	// Regions names the shards (default {DefaultRegion}).
	Regions []string
	// OCEs is each region's responder pool size (default 3).
	OCEs int
	// ArrivalsPerHour is the mean arrival rate per region (default 2);
	// the merged process runs at Regions × ArrivalsPerHour.
	ArrivalsPerHour float64
	// Incidents is the total arrival count across all regions,
	// storm echoes included (default 100).
	Incidents int
	// Mix, Runner, Seed and Workers behave exactly as in Config.
	Mix     []scenarios.Scenario
	Runner  harness.Runner
	Seed    int64
	Workers int
	// Policy, QueueLimit and AgingStep apply per region, as in Config.
	Policy     Policy
	QueueLimit int
	AgingStep  time.Duration
	// Steal and BatchStep behave as in ShardedLiveConfig.
	Steal     bool
	BatchStep time.Duration
	// Storm correlates arrivals across regions (zero: independent
	// Poisson only; needs at least two regions to matter).
	Storm scenarios.StormConfig
	// Obs behaves as in Config.
	Obs *obs.Sink
}

func (cfg ShardedConfig) withDefaults() ShardedConfig {
	if len(cfg.Regions) == 0 {
		cfg.Regions = []string{DefaultRegion}
	}
	cfg.Regions = normalizeRegions(cfg.Regions)
	if cfg.OCEs <= 0 {
		cfg.OCEs = 3
	}
	if cfg.ArrivalsPerHour <= 0 {
		cfg.ArrivalsPerHour = 2
	}
	if cfg.Incidents <= 0 {
		cfg.Incidents = 100
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = scenarios.All()
	}
	if cfg.AgingStep == 0 {
		cfg.AgingStep = 30 * time.Minute
	}
	if cfg.BatchStep <= 0 {
		cfg.BatchStep = 15 * time.Minute
	}
	return cfg
}

// SimulateSharded runs the multi-region fleet model.
func SimulateSharded(cfg ShardedConfig) *ShardedReport {
	cfg = cfg.withDefaults()
	R := len(cfg.Regions)
	n := cfg.Incidents

	// Phase 1 — serial pre-draw: merged Poisson arrivals routed across
	// regions, each primary optionally spawning storm echoes of its own
	// scenario class in other regions. The rng call order per primary is
	// fixed (gap, region, scenario, seed, storm draw, then a region and
	// seed per echo), so the arrival set is a pure function of the seed.
	// The region draw consumes a value even at R = 1, so one-region runs
	// differ from Simulate's draw.
	rng := randsrc.New(cfg.Seed)
	draws := make([]arrival, 0, n)
	var now time.Duration
	for len(draws) < n {
		now += time.Duration(rng.ExpFloat64() / (cfg.ArrivalsPerHour * float64(R)) * float64(time.Hour))
		ri := rng.Intn(R)
		sc := cfg.Mix[rng.Intn(len(cfg.Mix))]
		draws = append(draws, arrival{at: now, region: ri, scenario: sc, seed: rng.Int63()})
		if R > 1 && cfg.Storm.Correlation > 0 {
			d := cfg.Storm.Draw(rng)
			for e := 0; e < d.Fanout && len(draws) < n; e++ {
				echo := (ri + 1 + rng.Intn(R-1)) % R
				draws = append(draws, arrival{
					at: now + d.Offsets[e], region: echo, scenario: sc, seed: rng.Int63(),
				})
			}
		}
	}
	for i := range draws {
		draws[i].id = arrivalID(i)
	}
	// Stable by time: equal times keep pre-draw (= ID) order, so the
	// global order is exactly (At, ID).
	sort.SliceStable(draws, func(i, j int) bool { return draws[i].at < draws[j].at })
	return simulate(cfg, draws)
}

// ShardedSummaryTable renders one row per region plus the fleet total —
// the table `imctl fleet -regions` prints and E17 pins.
func ShardedSummaryTable(title string, rep *ShardedReport) *eval.Table {
	t := eval.NewTable(title,
		"region", "shed", "stolen(in/out)", "meanQueue(m)", "p50Res(m)", "p99Res(m)", "mitigated", "util", "drain(m)")
	row := func(name string, r *Report, in, out int) {
		t.AddRow(name, fmt.Sprintf("%d/%d", r.Shed, len(r.Outcomes)),
			fmt.Sprintf("%d/%d", in, out),
			fmtMin(r.MeanQueue), fmtMin(r.P50Resolution), fmtMin(r.P99Resolution),
			eval.Pct(r.MitigatedRate), fmt.Sprintf("%.2f", r.Utilization), fmtMin(r.Drain))
	}
	for i := range rep.Regions {
		rr := &rep.Regions[i]
		row(rr.Region, rr.Report, rr.StolenIn, rr.StolenOut)
	}
	row("fleet", rep.Total, rep.Stolen, rep.Stolen)
	return t
}
