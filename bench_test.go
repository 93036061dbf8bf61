package aiops

// The benchmark harness has two layers:
//
//   - BenchmarkE1..E9 regenerate the per-experiment tables from
//     DESIGN.md's index (small cells; run `go run ./cmd/benchgen` for
//     full-size tables) and report each experiment's headline metric via
//     b.ReportMetric, so `go test -bench=E` tracks the reproduction's
//     shape over time.
//   - The micro-benchmarks below measure the substrates a downstream
//     user would care about: routing, world cloning (what-if risk),
//     embeddings, vector search, simulated-LLM completion, and whole
//     helper sessions.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/risk"
	"repro/internal/scenarios"
)

const benchTrials = 4

func benchParams(i int) experiments.Params {
	return experiments.Params{Trials: benchTrials, Seed: int64(1000 + i)}
}

// ---------------------------------------------------------------------------
// Experiment benches (one per table/figure).
// ---------------------------------------------------------------------------

func BenchmarkE1_FrameworkPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace, tables := experiments.E1FrameworkTrace(benchParams(i))
		if trace == "" || len(tables) == 0 {
			b.Fatal("empty E1 output")
		}
	}
}

func BenchmarkE2_IterativeVsOneShot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E2IterativeVsOneShot(benchParams(i))
		if len(tables[0].Rows) < 8 {
			b.Fatalf("E2 rows = %d", len(tables[0].Rows))
		}
	}
}

func BenchmarkE3_Adaptivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E3Adaptivity(benchParams(i))
		if len(tables[0].Rows) != 5 {
			b.Fatalf("E3 rows = %d", len(tables[0].Rows))
		}
	}
}

func BenchmarkE4_ABTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E4ABTest(benchParams(i))
		if len(tables) != 2 {
			b.Fatal("E4 should emit arm stats + tests")
		}
	}
}

func BenchmarkE5_Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E5Replay(benchParams(i))
		if len(tables[0].Rows) < 7 {
			b.Fatal("E5 incomplete")
		}
	}
}

func BenchmarkE6_Costs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E6Costs(benchParams(i))
		if len(tables) != 2 {
			b.Fatal("E6 should emit inference + TSG tables")
		}
	}
}

func BenchmarkE7_RiskAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E7RiskAblation(benchParams(i))
		if len(tables[0].Rows) != 4 {
			b.Fatal("E7 should emit 4 variants")
		}
	}
}

func BenchmarkE8_Embeddings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E8Embeddings(benchParams(i))
		if len(tables[0].Rows) != 2 {
			b.Fatal("E8 should emit 2 embedders")
		}
	}
}

func BenchmarkE9_Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E9Sensitivity(benchParams(i))
		if len(tables) != 4 {
			b.Fatal("E9 should emit 4 sweeps")
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

func benchWorld() *netsim.World {
	return scenarios.StandardWorld()
}

func BenchmarkRouteTraffic(b *testing.B) {
	w := benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Invalidate()
		w.Recompute()
	}
}

func BenchmarkRouteDAG(b *testing.B) {
	w := benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := netsim.RouteDAGFor(w.Net, "us-east-host-p0-t0-h0", "eu-north-host-p0-t0-h0", nil)
		if d == nil {
			b.Fatal("no DAG")
		}
	}
}

func BenchmarkWorldClone(b *testing.B) {
	w := benchWorld()
	w.Recompute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}

// BenchmarkStandardWorld is the per-incident world cost: a fork of the
// process-wide standard world template.
func BenchmarkStandardWorld(b *testing.B) {
	benchWorld()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if scenarios.StandardWorld() == nil {
			b.Fatal("nil world")
		}
	}
}

func BenchmarkScenarioBuildCascade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		in := (&scenarios.Cascade{Stage: 5}).Build(rand.New(rand.NewSource(int64(i))))
		if in.Incident == nil {
			b.Fatal("no incident")
		}
	}
}

// sinkSeedRand keeps BenchmarkSeedRand's draws observable.
var sinkSeedRand int

// BenchmarkSeedRand is the per-session seeding cost: seed a source and
// draw once, as a scenario Build does. "lazy" is the source program code
// uses; "mathrand" is the eager math/rand source it reproduces.
func BenchmarkSeedRand(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSeedRand += randsrc.New(int64(i)).Intn(100)
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSeedRand += rand.New(rand.NewSource(int64(i))).Intn(100)
		}
	})
}

func BenchmarkEmbedDomain(b *testing.B) {
	e := embed.NewDomainEmbedder(128)
	text := "severe packet loss and retransmissions after config push in us-east; devices resetting"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := e.Embed(text); len(v) != 128 {
			b.Fatal("bad vector")
		}
	}
}

func BenchmarkVectorSearchANN(b *testing.B) {
	corpus := replayer.Generate(replayer.Options{N: 150, Seed: 5})
	store := embed.NewStore(embed.NewDomainEmbedder(128))
	for _, r := range corpus.History.All() {
		store.Add(r.ID, r.Text())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := store.SearchANN("packet drops in the web tier after deploy", 3); len(hits) == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkSimLLMFormHypotheses(b *testing.B) {
	model := llm.NewSimLLM(kb.Default(), 1)
	req := llm.BuildFormHypotheses(llm.PromptContext{Symptoms: []string{kb.CPacketLoss}}, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Complete(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRiskAssessPlan(b *testing.B) {
	in := (&scenarios.Cascade{Stage: 5}).Build(rand.New(rand.NewSource(3)))
	a := &risk.Assessor{}
	plan := mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.OverrideWAN, Target: "B4", Param: "healthy"},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := a.AssessPlan(in.World, plan); rep == nil {
			b.Fatal("nil report")
		}
	}
}

func benchKB() *kb.KB {
	k := kb.Default()
	kb.ApplyFastpathUpdate(k)
	return k
}

func BenchmarkHelperSessionGrayLink(b *testing.B) {
	kbase := benchKB()
	r := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(int64(i))))
		res := r.Run(in, int64(i))
		if !res.Mitigated {
			b.Fatalf("iteration %d not mitigated", i)
		}
	}
}

func BenchmarkHelperSessionCascade(b *testing.B) {
	kbase := benchKB()
	r := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := (&scenarios.Cascade{Stage: 5}).Build(rand.New(rand.NewSource(int64(i))))
		res := r.Run(in, int64(i))
		if !res.Mitigated {
			b.Fatalf("iteration %d not mitigated", i)
		}
	}
}

func BenchmarkOneShotSession(b *testing.B) {
	kbase := benchKB()
	hist := replayer.Generate(replayer.Options{N: 100, Seed: 6}).History
	r := &harness.OneShotRunner{History: hist, KBase: kbase}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(int64(i))))
		r.Run(in, int64(i))
	}
}

func BenchmarkUnassistedSession(b *testing.B) {
	kbase := benchKB()
	r := &harness.ControlRunner{KBase: kbase}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(int64(i))))
		r.Run(in, int64(i))
	}
}

func BenchmarkE10_FleetLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E10FleetLoad(benchParams(i))
		if len(tables[0].Rows) != 8 {
			b.Fatal("E10 should emit 4 rates x 2 arms")
		}
	}
}

func BenchmarkE11_LearningCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E11LearningCurve(benchParams(i))
		if len(tables[0].Rows) != 4 {
			b.Fatal("E11 should emit 4 history sizes")
		}
	}
}

func BenchmarkE12_SmallModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E12SmallModels(benchParams(i))
		if len(tables[0].Rows) != 8 {
			b.Fatal("E12 should emit 4 recalls x 2 RAG arms")
		}
	}
}

func BenchmarkE13_Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E13Resilience(benchParams(i))
		if len(tables[0].Rows) != 12 {
			b.Fatal("E13 should emit 4 fault rates x 3 arms")
		}
	}
}

func BenchmarkE14_OfferedLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E14OfferedLoad(benchParams(i))
		if len(tables) != 2 || len(tables[0].Rows) != 15 {
			b.Fatal("E14 should emit a 5-rung x 3-arm ladder plus the knee table")
		}
	}
}

// benchFlatScenario / benchFlatRunner isolate the fleet scheduler's own
// cost (admission, priority queues, aging, drain) from session time.
type benchFlatScenario struct{}

func (benchFlatScenario) Name() string           { return "flat" }
func (benchFlatScenario) RootCauseClass() string { return "bench" }
func (benchFlatScenario) Build(rng *rand.Rand) *scenarios.Instance {
	return &scenarios.Instance{Incident: &incident.Incident{Severity: rng.Intn(4)}, Scenario: benchFlatScenario{}}
}

type benchFlatRunner struct{}

func (benchFlatRunner) Name() string { return "flat" }
func (benchFlatRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	return harness.Result{Scenario: in.Scenario.Name(), Mitigated: true, Correct: true, TTM: 45 * time.Minute}
}

func BenchmarkFleetSchedule(b *testing.B) {
	cfg := fleet.Config{
		OCEs: 3, ArrivalsPerHour: 8, Incidents: 256, QueueLimit: 8,
		Mix: []scenarios.Scenario{benchFlatScenario{}}, Runner: benchFlatRunner{},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if rep := fleet.Simulate(cfg); rep.Admitted+rep.Shed != 256 {
			b.Fatal("fleet lost arrivals")
		}
	}
}

func BenchmarkE17_ShardedFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.E17ShardedFleet(experiments.Params{Trials: 1, Seed: int64(1000 + i)})
		if len(tables) != 2 || len(tables[0].Rows) != 24 {
			b.Fatal("E17 should emit a 3-fanout x 4-rung x 2-arm ladder plus the knee table")
		}
	}
}

func BenchmarkFleetShardedSchedule(b *testing.B) {
	cfg := fleet.ShardedConfig{
		Regions: []string{"r00", "r01", "r02", "r03"}, OCEs: 3,
		ArrivalsPerHour: 16, Incidents: 4096, QueueLimit: 8, Steal: true,
		Storm: scenarios.StormConfig{Correlation: 0.25, MaxFanout: 3, Window: 15 * time.Minute},
		Mix:   []scenarios.Scenario{benchFlatScenario{}}, Runner: benchFlatRunner{},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if rep := fleet.SimulateSharded(cfg); len(rep.Total.Outcomes) != 4096 {
			b.Fatal("sharded fleet lost arrivals")
		}
	}
}
