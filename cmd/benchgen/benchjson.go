package main

// The -bench-json mode runs the repository's benchmark set in-process —
// every registered experiment's tables at the bench_test.go cell size
// plus the substrate micro-kernels (routing, cloning, embeddings,
// search, LLM, risk, whole sessions, the single-cell and sharded fleet
// schedulers) — and writes one JSON record per benchmark:
// {name, ns/op, allocs/op, headline}. Committed snapshots
// (BENCH_<date>.json at the repo root) give the performance trajectory a
// baseline that `go test -bench` output alone never leaves behind.
//
// Cell sizes are pinned (Trials=4, Seed=1000+i) to match the
// BenchmarkE* functions, independent of -trials/-seed, so snapshots
// taken months apart measure the same work. Timings are wall-clock and
// machine-dependent; allocs/op is stable. Combine with -nocache to
// snapshot the slow path.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/risk"
	"repro/internal/scenarios"
)

// flatScenario and flatRunner isolate the fleet scheduler's own cost —
// admission, priority queues, aging, drain — from session and
// world-build time.
type flatScenario struct{}

func (flatScenario) Name() string           { return "flat" }
func (flatScenario) RootCauseClass() string { return "bench" }
func (flatScenario) Build(rng *rand.Rand) *scenarios.Instance {
	return &scenarios.Instance{Incident: &incident.Incident{Severity: rng.Intn(4)}, Scenario: flatScenario{}}
}

type flatRunner struct{}

func (flatRunner) Name() string { return "flat" }
func (flatRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	return harness.Result{Scenario: in.Scenario.Name(), Mitigated: true, Correct: true, TTM: 45 * time.Minute}
}

// writeSessionLake fills a lake in dir with n entries the way the
// gateway ingests them: one observed helper session per entry, cycling
// through every scenario.
func writeSessionLake(dir string, runner *harness.HelperRunner, n int) error {
	l, _, err := lake.Open(dir)
	if err != nil {
		return err
	}
	all := scenarios.All()
	for i := 0; i < n; i++ {
		id, seed := fmt.Sprintf("inc-%d", i+1), int64(i+1)
		in := all[i%len(all)].Build(randsrc.New(seed))
		rec := &obs.Recorder{Session: "gw/" + id}
		res := runner.RunObserved(in, seed, rec)
		if _, err := l.Append(lake.NewEntry(id, runner.Name(), in, res, seed, rec.Events)); err != nil {
			l.Close()
			return err
		}
	}
	return l.Close()
}

// crashedJournal is the replay of a store that crashed with n accepted
// incidents across the regions, every seventh resolved by its caller.
func crashedJournal(n int, regions []string) journal.ReplayResult {
	all := scenarios.All()
	var recs []journal.Record
	for i := 0; i < n; i++ {
		sev := 1 + i%3
		recs = append(recs, journal.Record{
			V: journal.Version, Kind: journal.KindAccepted, ID: fmt.Sprintf("inc-%d", i+1),
			AtMinutes: float64(i) * 2.5, OpenedAtMinutes: float64(i) * 2.5,
			Scenario: all[i%len(all)].Name(), Severity: &sev, Region: regions[i%len(regions)],
		})
	}
	for i := 0; i < n; i += 7 {
		recs = append(recs, journal.Record{
			V: journal.Version, Kind: journal.KindResolved, ID: fmt.Sprintf("inc-%d", i+1),
			AtMinutes: float64(n) * 2.5, Status: "resolved",
		})
	}
	return journal.ReplayResult{Records: recs}
}

// benchRecord is one benchmark's line item.
type benchRecord struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Headline    string `json:"headline"`
}

// benchFile is the whole snapshot.
type benchFile struct {
	Date       string        `json:"date"`
	Go         string        `json:"go"`
	Caches     bool          `json:"caches"`
	TrialsCell int           `json:"trials_per_cell"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

const benchTrials = 4 // matches bench_test.go's cell size

func benchParams(i int) experiments.Params {
	return experiments.Params{Trials: benchTrials, Seed: int64(1000 + i)}
}

// runBenchJSON executes the benchmark set and writes the snapshot.
func runBenchJSON(c *cliflags.Common, path string) error {
	out := benchFile{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		Caches:     !c.NoCache,
		TrialsCell: benchTrials,
	}

	// add measures iters calls of fn: wall time from a monotonic clock,
	// allocations from the Mallocs delta around the loop (GC first so
	// the sweep doesn't land inside the window). Micro kernels (iters>1)
	// repeat the timed loop three times and keep the fastest repetition —
	// their windows are microseconds, where single-shot wall clock is
	// scheduler noise, and they are exactly the rows -bench-diff gates
	// on. Experiment rows (iters==1) run for seconds and stay
	// single-shot. fn returns the headline string so it can report a
	// measured quantity, not a guess.
	add := func(name string, iters int, fn func(i int) string) {
		reps := 1
		if iters > 1 {
			reps = 3
		}
		var headline string
		var bestNs, bestAllocs int64
		for r := 0; r < reps; r++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for i := 0; i < iters; i++ {
				headline = fn(i)
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			ns := elapsed.Nanoseconds() / int64(iters)
			if r == 0 || ns < bestNs {
				bestNs = ns
				bestAllocs = int64(m1.Mallocs-m0.Mallocs) / int64(iters)
			}
		}
		rec := benchRecord{
			Name:        name,
			NsPerOp:     bestNs,
			AllocsPerOp: bestAllocs,
			Headline:    headline,
		}
		out.Benchmarks = append(out.Benchmarks, rec)
		fmt.Fprintf(os.Stderr, "%-24s %14d ns/op %12d allocs/op   %s\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.Headline)
	}

	// Experiment benches: one full run per experiment at the pinned cell
	// size, same IDs as the registry / BenchmarkE* functions.
	for _, e := range experiments.Registry {
		e := e
		add(e.ID, 1, func(i int) string {
			tables := e.Run(benchParams(i))
			if len(tables) == 0 {
				panic("bench-json: " + e.ID + " produced no tables")
			}
			return fmt.Sprintf("%s (%d tables @ %d trials/cell)", e.Desc, len(tables), benchTrials)
		})
	}

	// Substrate micro-kernels, mirroring bench_test.go.
	w := scenarios.StandardWorld()
	add("RouteTraffic", 50, func(int) string {
		w.Invalidate()
		w.Recompute()
		return "full fixed-point recompute over the standard world"
	})
	add("RouteDAG", 200, func(int) string {
		if d := netsim.RouteDAGFor(w.Net, "us-east-host-p0-t0-h0", "eu-north-host-p0-t0-h0", nil); d == nil {
			panic("bench-json: no DAG")
		}
		return "one src-dst ECMP DAG, direct compute (no cache)"
	})
	w.Recompute()
	add("WorldClone", 500, func(int) string {
		if w.Clone() == nil {
			panic("bench-json: nil clone")
		}
		return "COW what-if snapshot of the recomputed standard world"
	})
	add("StandardWorld", 500, func(int) string {
		if scenarios.StandardWorld() == nil {
			panic("bench-json: nil world")
		}
		return "fork of the process-wide standard world template"
	})
	seedSink := 0
	add("SeedRand", 2000, func(i int) string {
		seedSink += randsrc.New(int64(i)).Intn(100)
		return "seed a per-session rand source and draw one Intn"
	})
	add("EmbedDomain", 500, func(int) string {
		e := embed.NewDomainEmbedder(128)
		if v := e.Embed("severe packet loss and retransmissions after config push in us-east; devices resetting"); len(v) != 128 {
			panic("bench-json: bad vector")
		}
		return "one 128-dim domain embedding"
	})
	corpus := replayer.Generate(replayer.Options{N: 150, Seed: 5})
	store := embed.NewStore(embed.NewDomainEmbedder(128))
	for _, r := range corpus.History.All() {
		store.Add(r.ID, r.Text())
	}
	add("VectorSearchANN", 200, func(int) string {
		if hits := store.SearchANN("packet drops in the web tier after deploy", 3); len(hits) == 0 {
			panic("bench-json: no hits")
		}
		return "top-3 ANN query over a 150-incident corpus"
	})
	model := llm.NewSimLLM(kb.Default(), 1)
	req := llm.BuildFormHypotheses(llm.PromptContext{Symptoms: []string{kb.CPacketLoss}}, 3)
	add("SimLLMFormHypotheses", 200, func(int) string {
		if _, err := model.Complete(req); err != nil {
			panic(err)
		}
		return "one simulated-LLM hypothesis completion"
	})
	riskIn := (&scenarios.Cascade{Stage: 5}).Build(randsrc.New(3))
	assessor := &risk.Assessor{}
	plan := mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.OverrideWAN, Target: "B4", Param: "healthy"},
	}}
	add("RiskAssessPlan", 20, func(int) string {
		if rep := assessor.AssessPlan(riskIn.World, plan); rep == nil {
			panic("bench-json: nil risk report")
		}
		return "what-if risk report for one WAN override on cascade-5"
	})
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	helper := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()}
	add("HelperSessionCascade", 5, func(i int) string {
		in := (&scenarios.Cascade{Stage: 5}).Build(randsrc.New(int64(i)))
		if res := helper.Run(in, int64(i)); !res.Mitigated {
			panic("bench-json: cascade not mitigated")
		}
		return "one full helper session on cascade-5"
	})
	add("HelperSessionGrayLink", 10, func(i int) string {
		in := (&scenarios.GrayLink{}).Build(randsrc.New(int64(i)))
		if res := helper.Run(in, int64(i)); !res.Mitigated {
			panic("bench-json: gray-link not mitigated")
		}
		return "one full helper session on gray-link"
	})
	oneShot := &harness.OneShotRunner{History: corpus.History, KBase: kbase}
	add("OneShotSession", 10, func(i int) string {
		in := (&scenarios.GrayLink{}).Build(randsrc.New(int64(i)))
		oneShot.Run(in, int64(i))
		return "one one-shot recommendation session on gray-link"
	})
	control := &harness.ControlRunner{KBase: kbase}
	add("UnassistedSession", 10, func(i int) string {
		in := (&scenarios.GrayLink{}).Build(randsrc.New(int64(i)))
		control.Run(in, int64(i))
		return "one unassisted control session on gray-link"
	})
	add("FleetSchedule", 20, func(i int) string {
		rep := fleet.Simulate(fleet.Config{
			OCEs: 3, ArrivalsPerHour: 8, Incidents: 256, QueueLimit: 8,
			Seed: int64(i), Mix: []scenarios.Scenario{flatScenario{}}, Runner: flatRunner{},
		})
		if rep.Admitted+rep.Shed != 256 {
			panic("bench-json: fleet lost arrivals")
		}
		return "256 flat-TTM arrivals through admission + priority scheduling + drain"
	})
	add("FleetShardedSchedule", 5, func(i int) string {
		rep := fleet.SimulateSharded(fleet.ShardedConfig{
			Regions: []string{"r00", "r01", "r02", "r03"}, OCEs: 3,
			ArrivalsPerHour: 16, Incidents: 4096, QueueLimit: 8, Steal: true,
			Storm: scenarios.StormConfig{Correlation: 0.25, MaxFanout: 3, Window: 15 * time.Minute},
			Seed:  int64(i), Mix: []scenarios.Scenario{flatScenario{}}, Runner: flatRunner{},
		})
		if len(rep.Total.Outcomes) != 4096 {
			panic("bench-json: sharded fleet lost arrivals")
		}
		return "4096 flat-TTM arrivals across 4 regions with batched dispatch + work stealing"
	})
	add("FleetHelperSessions", 2, func(i int) string {
		rep := fleet.Simulate(fleet.Config{
			OCEs: 2, ArrivalsPerHour: 6, Incidents: 24, QueueLimit: 8,
			Seed: int64(i), Runner: helper,
		})
		if len(rep.Outcomes) != 24 {
			panic("bench-json: fleet lost arrivals")
		}
		return "24-incident fleet with real helper sessions (E14 cell shape)"
	})
	lakeDir, err := os.MkdirTemp("", "bench-lake-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(lakeDir)
	dl, _, err := lake.Open(lakeDir)
	if err != nil {
		return err
	}
	defer dl.Close()
	lakeIn := (&scenarios.GrayLink{}).Build(randsrc.New(11))
	lakeRes := harness.Result{Scenario: lakeIn.Scenario.Name(), Mitigated: true, Correct: true, TTM: 38 * time.Minute}
	add("LakeIngest", 200, func(i int) string {
		e := lake.NewEntry(fmt.Sprintf("bench-%04d", i), "assisted-helper", lakeIn, lakeRes, int64(i), nil)
		if _, err := dl.Append(e); err != nil {
			panic(fmt.Errorf("bench-json: lake append: %w", err))
		}
		return "one postmortem framed, fsync'd, and indexed"
	})
	add("LakeQuery", 200, func(int) string {
		st := dl.Stats()
		if st.Entries == 0 || len(dl.ByTag("mitigated")) == 0 {
			panic("bench-json: lake query returned nothing")
		}
		return fmt.Sprintf("class stats + tag scan over %d entries", st.Entries)
	})
	// Boot kernels, mirroring BenchmarkLakeOpen (internal/lake) and
	// BenchmarkGatewayRecover (internal/gateway).
	openDir, err := os.MkdirTemp("", "bench-lake-open-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(openDir)
	if err := writeSessionLake(openDir, helper, 120); err != nil {
		return err
	}
	add("LakeOpen", 10, func(int) string {
		l, rr, err := lake.Open(openDir)
		if err != nil || rr.Entries != 120 {
			panic(fmt.Errorf("bench-json: lake open = %+v, %v", rr, err))
		}
		l.Close()
		return "reopen a lake of 120 helper-session entries, events kept raw"
	})
	bootRegions := []string{"us-east", "eu-west", "ap-south"}
	bootJournal := crashedJournal(105, bootRegions)
	add("GatewayRecover", 3, func(int) string {
		sink := obs.NewSink()
		gw := gateway.NewServer(gateway.Config{
			Clock: gateway.NewSimClock(), Runner: helper, Seed: 7, Sink: sink,
			Sched: fleet.NewSharded(fleet.ShardedLiveConfig{
				Regions: bootRegions, OCEs: 3, Policy: fleet.SeverityAging,
				QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
				Obs: sink, RunnerName: helper.Name(),
			}),
		})
		defer gw.Shutdown()
		st, err := gw.Recover(bootJournal)
		if err != nil || st.Reoffered != 90 {
			panic(fmt.Errorf("bench-json: recover = %+v, %v", st, err))
		}
		return "boot: re-run and re-offer 90 unresolved incidents over 3 regions"
	})

	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks, caches=%v)\n", path, len(out.Benchmarks), out.Caches)
	return nil
}
