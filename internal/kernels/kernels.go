// Package kernels is the repository's one benchmark table. Each row is
// a named kernel with a one-line headline and a body that builds its
// own fixtures and loops with b.Loop. Two consumers run it: the root
// package's BenchmarkKernels (`go test -bench=Kernels`) and
// `benchgen -bench-json`, which writes the BENCH_<date>.json snapshots.
// Row names are the snapshot names, so a row keeps its history across
// snapshots and `benchgen -bench-diff` can join them.
//
// The experiment rows (e1, e2, ...) run every registered experiment at
// a pinned cell (Trials=4, Seed=1000+i for iteration i), independent of
// any CLI flag, so snapshots taken months apart measure the same work,
// and each checks its output shape. The other rows are the substrate
// kernels: routing, world forks, seeding, embeddings, search, the
// simulated LLM, risk, whole sessions, the fleet schedulers, the data
// lake, the gateway's create path, boot recovery and the trial pool.
package kernels

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/eval"
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
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/risk"
	"repro/internal/scenarios"
)

// Kernel is one benchmark row.
type Kernel struct {
	Name     string
	Headline string
	Bench    func(b *testing.B)
}

// Trials is the pinned cell size of the experiment rows.
const Trials = 4

// shape is an experiment's output at the pinned cell: how many tables,
// and how many rows the first one has.
type shape struct{ tables, rows int }

// shapes holds every registered experiment's shape.
var shapes = map[string]shape{
	"e1": {1, 9}, "e2": {1, 10}, "e3": {1, 5}, "e4": {2, 2}, "e5": {1, 8},
	"e6": {2, 10}, "e7": {1, 4}, "e8": {1, 2}, "e9": {4, 8}, "e10": {1, 8},
	"e11": {1, 4}, "e12": {1, 8}, "e13": {1, 12}, "e14": {2, 15}, "e15": {2, 15},
	"e16": {2, 3}, "e17": {2, 24}, "e18": {1, 18},
}

// Table is every kernel, experiments first, in snapshot order.
var Table = append(experimentRows(), []Kernel{
	{"RouteTraffic", "full fixed-point recompute over the standard world", func(b *testing.B) {
		w := scenarios.StandardWorld()
		for b.Loop() {
			w.Invalidate()
			w.Recompute()
		}
	}},
	{"RouteDAG", "one src-dst ECMP DAG, direct compute (no cache)", func(b *testing.B) {
		w := scenarios.StandardWorld()
		for b.Loop() {
			if netsim.RouteDAGFor(w.Net, "us-east-host-p0-t0-h0", "eu-north-host-p0-t0-h0", nil) == nil {
				b.Fatal("no DAG")
			}
		}
	}},
	{"WorldClone", "COW what-if snapshot of the recomputed standard world", func(b *testing.B) {
		w := scenarios.StandardWorld()
		w.Recompute()
		for b.Loop() {
			if w.Clone() == nil {
				b.Fatal("nil clone")
			}
		}
	}},
	{"StandardWorld", "fork of the process-wide standard world template", func(b *testing.B) {
		scenarios.StandardWorld() // build the template outside the loop
		for b.Loop() {
			if scenarios.StandardWorld() == nil {
				b.Fatal("nil world")
			}
		}
	}},
	{"ScenarioBuildCascade", "build one cascade-5 incident and its world from a fresh seed", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if (&scenarios.Cascade{Stage: 5}).Build(randsrc.New(int64(i))).Incident == nil {
				b.Fatal("no incident")
			}
		}
	}},
	{"SeedRand", "seed a per-session rand source and draw one Intn", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			randsrc.New(int64(i)).Intn(100)
		}
	}},
	{"EmbedDomain", "one 128-dim domain embedding", func(b *testing.B) {
		for b.Loop() {
			e := embed.NewDomainEmbedder(128)
			if v := e.Embed("severe packet loss and retransmissions after config push in us-east; devices resetting"); len(v) != 128 {
				b.Fatal("bad vector")
			}
		}
	}},
	{"VectorSearchANN", "top-3 ANN query over a 150-incident corpus", func(b *testing.B) {
		store := embed.NewStore(embed.NewDomainEmbedder(128))
		for _, r := range corpus().All() {
			store.Add(r.ID, r.Text())
		}
		for b.Loop() {
			if len(store.SearchANN("packet drops in the web tier after deploy", 3)) == 0 {
				b.Fatal("no hits")
			}
		}
	}},
	{"SimLLMFormHypotheses", "one simulated-LLM hypothesis completion", func(b *testing.B) {
		model := llm.NewSimLLM(kb.Default(), 1)
		req := llm.BuildFormHypotheses(llm.PromptContext{Symptoms: []string{kb.CPacketLoss}}, 3)
		for b.Loop() {
			if _, err := model.Complete(req); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"RiskAssessPlan", "what-if risk report for one WAN override on cascade-5", func(b *testing.B) {
		in := (&scenarios.Cascade{Stage: 5}).Build(randsrc.New(3))
		a := &risk.Assessor{}
		plan := mitigation.Plan{Actions: []mitigation.Action{
			{Kind: mitigation.OverrideWAN, Target: "B4", Param: "healthy"},
		}}
		for b.Loop() {
			if a.AssessPlan(in.World, plan) == nil {
				b.Fatal("nil risk report")
			}
		}
	}},
	{"HelperSessionCascade", "one full helper session on cascade-5", func(b *testing.B) {
		session(b, helper(), &scenarios.Cascade{Stage: 5}, true)
	}},
	{"HelperSessionGrayLink", "one full helper session on gray-link", func(b *testing.B) {
		session(b, helper(), &scenarios.GrayLink{}, true)
	}},
	{"OneShotSession", "one one-shot recommendation session on gray-link", func(b *testing.B) {
		session(b, &harness.OneShotRunner{History: corpus(), KBase: fastpathKB()}, &scenarios.GrayLink{}, false)
	}},
	{"UnassistedSession", "one unassisted control session on gray-link", func(b *testing.B) {
		session(b, &harness.ControlRunner{KBase: fastpathKB()}, &scenarios.GrayLink{}, false)
	}},
	{"FleetSchedule", "256 flat-TTM arrivals through admission + priority scheduling + drain", func(b *testing.B) {
		cfg := fleet.Config{
			OCEs: 3, ArrivalsPerHour: 8, Incidents: 256, QueueLimit: 8,
			Mix: []scenarios.Scenario{flatScenario{}}, Runner: flatRunner{},
		}
		for i := 0; b.Loop(); i++ {
			cfg.Seed = int64(i)
			if rep := fleet.Simulate(cfg); rep.Admitted+rep.Shed != 256 {
				b.Fatal("fleet lost arrivals")
			}
		}
	}},
	{"FleetShardedSchedule", "4096 flat-TTM arrivals across 4 regions with batched dispatch + work stealing", func(b *testing.B) {
		cfg := fleet.ShardedConfig{
			Regions: []string{"r00", "r01", "r02", "r03"}, OCEs: 3,
			ArrivalsPerHour: 16, Incidents: 4096, QueueLimit: 8, Steal: true,
			Storm: scenarios.StormConfig{Correlation: 0.25, MaxFanout: 3, Window: 15 * time.Minute},
			Mix:   []scenarios.Scenario{flatScenario{}}, Runner: flatRunner{},
		}
		for i := 0; b.Loop(); i++ {
			cfg.Seed = int64(i)
			if rep := fleet.SimulateSharded(cfg); len(rep.Total.Outcomes) != 4096 {
				b.Fatal("sharded fleet lost arrivals")
			}
		}
	}},
	{"FleetHelperSessions", "24-incident fleet with real helper sessions (E14 cell shape)", func(b *testing.B) {
		cfg := fleet.Config{OCEs: 2, ArrivalsPerHour: 6, Incidents: 24, QueueLimit: 8, Runner: helper()}
		for i := 0; b.Loop(); i++ {
			cfg.Seed = int64(i)
			if rep := fleet.Simulate(cfg); len(rep.Outcomes) != 24 {
				b.Fatal("fleet lost arrivals")
			}
		}
	}},
	{"LakeIngest", "one new postmortem framed, fsync'd, and indexed", func(b *testing.B) {
		_, add := postmortemLake(b)
		for i := 0; b.Loop(); i++ {
			add(i)
		}
	}},
	{"LakeQuery", "class stats + tag scan over 200 entries", func(b *testing.B) {
		l, add := postmortemLake(b)
		for i := 0; i < 200; i++ {
			add(i)
		}
		for b.Loop() {
			if l.Stats().Entries != 200 || len(l.ByTag("mitigated")) == 0 {
				b.Fatal("lake query returned nothing")
			}
		}
	}},
	{"LakeOpen", "reopen a lake of 120 helper-session entries, events kept raw", func(b *testing.B) {
		dir := b.TempDir()
		writeSessionLake(b, dir, 120)
		for b.Loop() {
			l, rr, err := lake.Open(dir)
			if err != nil || rr.Entries != 120 {
				b.Fatalf("lake open = %+v, %v", rr, err)
			}
			l.Close()
		}
	}},
	{"GatewayRecover", "boot: re-run and re-offer 90 unresolved incidents over 3 regions", func(b *testing.B) {
		regions := []string{"us-east", "eu-west", "ap-south"}
		rr := crashedJournal(105, regions)
		runner := helper()
		for b.Loop() {
			sink := obs.NewSink()
			gw := gateway.NewServer(gateway.Config{
				Clock: gateway.NewSimClock(), Runner: runner, Seed: 7, Sink: sink,
				Sched: fleet.NewSharded(fleet.ShardedLiveConfig{
					Regions: regions, OCEs: 3, Policy: fleet.SeverityAging,
					QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
					Obs: sink, RunnerName: runner.Name(),
				}),
			})
			st, err := gw.Recover(rr)
			gw.Shutdown()
			if err != nil || st.Reoffered != 90 {
				b.Fatalf("recover = %+v, %v", st, err)
			}
		}
	}},
	{"GatewayCreate", "one POST /v1/incidents to its 201 through Handler(): session, lake and journal fsync, sink, no socket", func(b *testing.B) {
		h, clock := gatewayStack(b)
		regions := []string{"r0", "r1", "r2", "r3"}
		for i := 0; b.Loop(); i++ {
			// Ten simulated minutes between arrivals keep the pools
			// draining; the POST's own wall-clock step dispatches them.
			clock.AdvanceTo(time.Duration(i) * 10 * time.Minute)
			req := httptest.NewRequest("POST", "/v1/incidents", strings.NewReader(fmt.Sprintf(
				`{"id":"bench-%07d","scenario":"gray-link","region":%q,"opened_at_minutes":%d}`, i, regions[i%len(regions)], i*10)))
			req.Header.Set("X-API-Key", "k")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 201 {
				b.Fatalf("POST %d: HTTP %d: %s", i, w.Code, w.Body)
			}
		}
	}},
	{"RunTrialsOverhead", "64 near-empty trials through the trial pool: per-trial scheduling cost", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			parallel.RunTrials(64, 0, int64(i), func(seed int64, trial int) int64 { return seed ^ int64(trial) })
		}
	}},
	// The two ParallelSpeedup rows are the same A/B trial, serial and on
	// the default pool; their ns/op ratio is the pool's speedup.
	{"ParallelSpeedup/workers=1", "32-incident A/B trial, helper vs control, one worker", func(b *testing.B) {
		abTrial(b, 1)
	}},
	{"ParallelSpeedup/workers=gomaxprocs", "32-incident A/B trial, helper vs control, one worker per GOMAXPROCS", func(b *testing.B) {
		abTrial(b, 0)
	}},
}...)

// experimentRows is one row per registered experiment, each checking
// its output shape on every iteration.
func experimentRows() []Kernel {
	rows := make([]Kernel, 0, len(experiments.Registry))
	for _, e := range experiments.Registry {
		run, want := e.Run, shapes[e.ID]
		if e.ID == "e1" {
			// E1's check includes its trace, which Registry's Run drops:
			// an empty trace reads as no tables.
			run = func(p experiments.Params) []*eval.Table {
				if trace, tables := experiments.E1FrameworkTrace(p); trace != "" {
					return tables
				}
				return nil
			}
		}
		rows = append(rows, Kernel{
			Name:     e.ID,
			Headline: fmt.Sprintf("%s (%d tables @ %d trials/cell)", e.Desc, want.tables, Trials),
			Bench: func(b *testing.B) {
				for i := 0; b.Loop(); i++ {
					tables := run(experiments.Params{Trials: Trials, Seed: int64(1000 + i)})
					got := shape{tables: len(tables)}
					if got.tables > 0 {
						got.rows = len(tables[0].Rows)
					}
					if got != want {
						b.Fatalf("%s emitted %+v, want %+v", e.ID, got, want)
					}
				}
			},
		})
	}
	return rows
}

// fastpathKB is the default knowledge base with the fast-path update
// applied, the one every assisted session runs on.
func fastpathKB() *kb.KB {
	k := kb.Default()
	kb.ApplyFastpathUpdate(k)
	return k
}

func helper() *harness.HelperRunner {
	return &harness.HelperRunner{KBase: fastpathKB(), Config: core.DefaultConfig()}
}

// corpus is a 150-incident generated history.
func corpus() *kb.History {
	return replayer.Generate(replayer.Options{N: 150, Seed: 5}).History
}

// session runs one incident of sc per iteration through r, seeded by
// the iteration, and requires mitigation when mustMitigate is set.
func session(b *testing.B, r harness.Runner, sc scenarios.Scenario, mustMitigate bool) {
	for i := 0; b.Loop(); i++ {
		in := sc.Build(randsrc.New(int64(i)))
		if res := r.Run(in, int64(i)); mustMitigate && !res.Mitigated {
			b.Fatalf("%s iteration %d not mitigated", sc.Name(), i)
		}
	}
}

func abTrial(b *testing.B, workers int) {
	kbase := fastpathKB()
	for b.Loop() {
		eval.ABTest(eval.ABConfig{N: 32, Seed: 7, Workers: workers},
			&harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()},
			&harness.ControlRunner{KBase: kbase, Expertise: 0.8},
		)
	}
}

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

// postmortemLake opens an empty lake in a fresh directory, closed when
// b ends, and returns it with a function that appends entry bench-<i>:
// a mitigated gray-link postmortem without events.
func postmortemLake(b *testing.B) (*lake.Lake, func(i int)) {
	l, _, err := lake.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	in := (&scenarios.GrayLink{}).Build(randsrc.New(11))
	res := harness.Result{Scenario: in.Scenario.Name(), Mitigated: true, Correct: true, TTM: 38 * time.Minute}
	return l, func(i int) {
		e := lake.NewEntry(fmt.Sprintf("bench-%04d", i), "assisted-helper", in, res, int64(i), nil)
		if _, err := l.Append(e); err != nil {
			b.Fatal(err)
		}
	}
}

// writeSessionLake fills a lake in dir with n entries the way the
// gateway ingests them: one observed helper session per entry, cycling
// through every scenario.
func writeSessionLake(b *testing.B, dir string, n int) {
	l, _, err := lake.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	runner := helper()
	all := scenarios.All()
	for i := 0; i < n; i++ {
		id, seed := fmt.Sprintf("inc-%d", i+1), int64(i+1)
		in := all[i%len(all)].Build(randsrc.New(seed))
		rec := &obs.Recorder{Session: "gw/" + id}
		res := runner.RunObserved(in, seed, rec)
		if _, err := l.Append(lake.NewEntry(id, runner.Name(), in, res, seed, rec.Events)); err != nil {
			b.Fatal(err)
		}
	}
}

// gatewayStack builds the gateway aiopsd runs with -journal, -lake and
// four stealing regions, stores in a fresh directory closed when b
// ends, in wall-clock mode over a simulated clock the caller advances:
// every request steps the scheduler to the clock, as a deployed daemon
// does.
func gatewayStack(b *testing.B) (http.Handler, *gateway.SimClock) {
	dir := b.TempDir()
	jr, rr, err := journal.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	dl, _, err := lake.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { jr.Close(); dl.Close() })
	runner := helper()
	sink := obs.NewSink()
	clock := gateway.NewSimClock()
	gw := gateway.NewServer(gateway.Config{
		Keys: map[string]string{"k": "bench"}, Clock: clock, Runner: runner, Seed: 7, Sink: sink,
		Journal: jr, Lake: dl,
		Sched: fleet.NewSharded(fleet.ShardedLiveConfig{
			Regions: []string{"r0", "r1", "r2", "r3"}, OCEs: 3, Policy: fleet.SeverityAging,
			QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
			Obs: sink, RunnerName: runner.Name(),
		}),
	})
	if _, err := gw.Recover(rr); err != nil {
		b.Fatal(err)
	}
	return gw.Handler(), clock
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
