package scenarios_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

// worldDigest is a canonical hash of a world's observable state: nodes,
// links, flows, controller, baselines, clock, faults, syslog, change
// log, route-cache counters, traffic report and recorder series. The
// cache counters are read before the report, which may recompute.
func worldDigest(w *netsim.World) string {
	h := sha256.New()
	for _, nd := range w.Net.Nodes() {
		fmt.Fprintf(h, "node %+v\n", *nd)
	}
	for _, l := range w.Net.Links() {
		fmt.Fprintf(h, "link %+v\n", *l)
	}
	for _, f := range w.Flows() {
		fmt.Fprintf(h, "flow %+v\n", *f)
	}
	fmt.Fprintf(h, "ctl %+v\n", *w.Ctl)
	fmt.Fprintf(h, "baselines %v %v %v\n", w.ServiceBaseline, w.LatencyBaseline, w.BrokenMonitors)
	fmt.Fprintf(h, "clock %v faults %v\n", w.Clock.Now(), w.ActiveFaults())
	fmt.Fprintf(h, "events %+v\nchanges %+v\n", w.Events(), w.Changes.All())
	hits, misses := w.Net.RouteCacheStats()
	fmt.Fprintf(h, "cache %d %d\n", hits, misses)
	rep := w.Report()
	for _, l := range w.Net.Links() {
		fmt.Fprintf(h, "ls %+v\n", *rep.LinkStats[l.ID])
	}
	for _, fs := range rep.FlowStats {
		var transit []netsim.NodeID
		if fs.DAG != nil {
			transit = fs.DAG.TransitNodes()
		}
		fmt.Fprintf(h, "fs %s %v %v %v %v\n", fs.Flow.ID, fs.Routed, fs.LossRate, fs.LatencyMs, transit)
	}
	for _, svc := range slices.Sorted(maps.Keys(rep.ServiceStats)) {
		fmt.Fprintf(h, "ss %+v\n", *rep.ServiceStats[svc])
	}
	fmt.Fprintf(h, "totals %v %v\n", rep.TotalDemand, rep.TotalDelivered)
	if r := telemetry.RecorderOf(w); r != nil {
		for _, k := range r.Keys() {
			fmt.Fprintf(h, "series %s %v\n", k, r.Range(k, 0, w.Clock.Now()))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func forkTestRunners() []harness.ObservedRunner {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	hist := replayer.Generate(replayer.Options{N: 30, Seed: 9}).History
	return []harness.ObservedRunner{
		&harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: hist},
		&harness.OneShotRunner{History: hist, KBase: kbase},
		&harness.ControlRunner{KBase: kbase, History: hist},
	}
}

// sessionRun is everything one session makes observable.
type sessionRun struct {
	incident     incident.Incident
	result       harness.Result
	events       []byte
	hits, misses int64
	world        string
}

func runSession(t *testing.T, sc scenarios.Scenario, r harness.ObservedRunner, seed int64, fresh bool) sessionRun {
	t.Helper()
	scenarios.SetFreshWorlds(fresh)
	scenarios.SetIncidentSeq(0)
	in := sc.Build(randsrc.New(seed))
	run := sessionRun{incident: *in.Incident}
	rec := obs.NewRecorder("s")
	run.result = r.RunObserved(in, seed, rec)
	var buf bytes.Buffer
	if err := obs.WriteEventLog(&buf, rec.Events); err != nil {
		t.Fatal(err)
	}
	run.events = buf.Bytes()
	run.hits, run.misses = in.World.Net.RouteCacheStats()
	run.world = worldDigest(in.World)
	return run
}

// TestForkMatchesFreshBuild is the differential oracle for template
// forking: every scenario, three seeds and every runner, once on a
// freshly built world and once on a fork, must produce the same
// incident, result, event-stream bytes, route-cache counters and final
// world state — with the route cache on, and again after turning it off
// in the same process.
//
// It sets process-wide switches, so it must not call t.Parallel.
func TestForkMatchesFreshBuild(t *testing.T) {
	defer netsim.SetRouteCacheEnabled(true)
	defer scenarios.SetFreshWorlds(false)
	runners := forkTestRunners()
	for _, cache := range []bool{true, false} {
		netsim.SetRouteCacheEnabled(cache)
		for _, sc := range scenarios.All() {
			for seed := int64(1); seed <= 3; seed++ {
				for _, r := range runners {
					name := fmt.Sprintf("cache=%v/%s/seed=%d/%s", cache, sc.Name(), seed, r.Name())
					fresh := runSession(t, sc, r, seed, true)
					fork := runSession(t, sc, r, seed, false)
					if !reflect.DeepEqual(fresh.incident, fork.incident) {
						t.Errorf("%s: incident differs:\nfresh %+v\nfork  %+v", name, fresh.incident, fork.incident)
					}
					if !reflect.DeepEqual(fresh.result, fork.result) {
						t.Errorf("%s: result differs:\nfresh %+v\nfork  %+v", name, fresh.result, fork.result)
					}
					if !bytes.Equal(fresh.events, fork.events) {
						t.Errorf("%s: event streams differ (%d vs %d bytes)", name, len(fresh.events), len(fork.events))
					}
					if fresh.hits != fork.hits || fresh.misses != fork.misses {
						t.Errorf("%s: route cache hits/misses fresh %d/%d, fork %d/%d",
							name, fresh.hits, fresh.misses, fork.hits, fork.misses)
					}
					if fresh.world != fork.world {
						t.Errorf("%s: final world state differs", name)
					}
				}
			}
		}
	}
}

// TestTemplateIntegrityUnderConcurrentForks forks the template from
// several goroutines, each running every scenario and one helper
// session, and requires the template to be exactly as it was built.
// Under -race it also proves Fork only reads its receiver; a test or
// program line that writes through a read-only view (Net.Node, Net.Link)
// of a fork fails here.
func TestTemplateIntegrityUnderConcurrentForks(t *testing.T) {
	t.Parallel()
	tmpl := scenarios.StandardTemplate()
	before := worldDigest(tmpl)
	helper := forkTestRunners()[0]
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last *scenarios.Instance
			for i, sc := range scenarios.All() {
				last = sc.Build(randsrc.New(100*g + int64(i)))
				last.World.Clock.Advance(30 * time.Minute)
				last.World.Recompute()
			}
			helper.Run(last, g)
		}()
	}
	wg.Wait()
	if after := worldDigest(tmpl); after != before {
		t.Fatal("forking and running sessions changed the standard world template")
	}
}

// TestStandardWorldAllocs pins the per-incident world cost: a fork of
// the template, not a rebuild.
func TestStandardWorldAllocs(t *testing.T) {
	if !netsim.RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	scenarios.StandardWorld()
	avg := testing.AllocsPerRun(50, func() { scenarios.StandardWorld() })
	if avg > 50 {
		t.Fatalf("StandardWorld allocates %.1f objects/op, want at most 50", avg)
	}
}
