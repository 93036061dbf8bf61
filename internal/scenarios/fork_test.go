package scenarios_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
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
// links, flows, controller, baselines, clock, syslog, change log,
// route-cache counters, traffic report and recorder series, and whether
// each of faults is active. Scenario builds are the only program code
// that injects faults, and each lists its fault in Truth.FaultIDs, so
// those IDs cover every fault a session world can carry.
func worldDigest(w *netsim.World, faults []string) string {
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
	fmt.Fprintf(h, "clock %v\n", w.Clock.Now())
	for _, id := range faults {
		fmt.Fprintf(h, "fault %s %v\n", id, w.FaultActive(id))
	}
	fmt.Fprintf(h, "events %+v\nchanges %+v\n", w.Events(), w.Changes.All())
	writeReport(h, w.Report())
	if r := telemetry.RecorderOf(w); r != nil {
		for _, k := range r.Keys() {
			fmt.Fprintf(h, "series %s %v\n", k, r.Range(k, 0, w.Clock.Now()))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeReport writes every field of a traffic report to h: link stats
// in link-ID order, flow stats, service stats by name and the totals.
func writeReport(h io.Writer, rep *netsim.TrafficReport) {
	for _, ls := range rep.Links {
		fmt.Fprintf(h, "ls %+v\n", ls)
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
}

// reportProbe is a trigger that never fires: it digests every traffic
// report its world computes, in order. What-if clones copy triggers,
// so a session's risk assessments are recorded too.
type reportProbe struct{ steps *[]string }

func (reportProbe) ID() string { return "~report-probe" } // sorts after every scenario trigger

func (p reportProbe) Fire(_ *netsim.World, rep *netsim.TrafficReport) bool {
	h := sha256.New()
	writeReport(h, rep)
	*p.steps = append(*p.steps, fmt.Sprintf("%x", h.Sum(nil)))
	return false
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
	incident incident.Incident
	result   harness.Result
	events   []byte
	world    string
	steps    []string // per-report digests; probed runs only
}

// runSession runs one session on a fresh world or a fork. A probed run
// installs a reportProbe after the build; installing it discards the
// world's report, so the first recompute routes through the engine.
func runSession(t *testing.T, sc scenarios.Scenario, r harness.ObservedRunner, seed int64, fresh, probe bool) sessionRun {
	t.Helper()
	scenarios.SetFreshWorlds(fresh)
	scenarios.SetIncidentSeq(0)
	in := sc.Build(randsrc.New(seed))
	run := sessionRun{incident: *in.Incident}
	if probe {
		in.World.AddTrigger(reportProbe{steps: &run.steps})
	}
	rec := obs.AcquireRecorder("s")
	run.result = r.RunObserved(in, seed, rec)
	var buf bytes.Buffer
	if err := obs.WriteEventLog(&buf, rec.Events); err != nil {
		t.Fatal(err)
	}
	run.events = buf.Bytes()
	run.world = worldDigest(in.World, in.Incident.Truth.FaultIDs)
	return run
}

// TestForkMatchesFreshBuild is the differential oracle for template
// forking: every scenario, three seeds and every runner, once on a
// freshly built world and once on a fork, must produce the same
// incident, result, event-stream bytes and final world state — with the route cache on, and again after turning it off
// in the same process. A second, probed pair of runs compares every
// traffic report the session computes, what-if clones included: the
// fork's engine starts warm from the template's and each clone's from
// its world's, so each step must equal the fresh build's step.
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
					fresh := runSession(t, sc, r, seed, true, false)
					fork := runSession(t, sc, r, seed, false, false)
					if !reflect.DeepEqual(fresh.incident, fork.incident) {
						t.Errorf("%s: incident differs:\nfresh %+v\nfork  %+v", name, fresh.incident, fork.incident)
					}
					if !reflect.DeepEqual(fresh.result, fork.result) {
						t.Errorf("%s: result differs:\nfresh %+v\nfork  %+v", name, fresh.result, fork.result)
					}
					if !bytes.Equal(fresh.events, fork.events) {
						t.Errorf("%s: event streams differ (%d vs %d bytes)", name, len(fresh.events), len(fork.events))
					}
					if fresh.world != fork.world {
						t.Errorf("%s: final world state differs", name)
					}
					freshSteps := runSession(t, sc, r, seed, true, true).steps
					forkSteps := runSession(t, sc, r, seed, false, true).steps
					if len(freshSteps) == 0 {
						t.Errorf("%s: probe recorded no reports", name)
					}
					if !slices.Equal(freshSteps, forkSteps) {
						t.Errorf("%s: per-step reports differ (fresh %d steps, fork %d)", name, len(freshSteps), len(forkSteps))
					}
				}
			}
		}
	}
}

// TestTemplateIntegrityUnderConcurrentForks forks the template from
// several goroutines, each running every scenario and one helper
// session, and requires the template to be exactly as it was built.
// The template carries no fault, so every fault a fork injected must
// still read inactive on it; this catches a fork that writes into the
// template's fault map, which copy-on-write of links does not cover.
// Under -race it also proves Fork only reads its receiver; a test or
// program line that writes through a read-only view (Net.Node, Net.Link)
// of a fork fails here.
func TestTemplateIntegrityUnderConcurrentForks(t *testing.T) {
	t.Parallel()
	tmpl := scenarios.StandardTemplate()
	before := worldDigest(tmpl, nil)
	helper := forkTestRunners()[0]
	ids := make([][]string, 4)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last *scenarios.Instance
			for i, sc := range scenarios.All() {
				last = sc.Build(randsrc.New(100*g + int64(i)))
				ids[g] = append(ids[g], last.Incident.Truth.FaultIDs...)
				last.World.Clock.Advance(30 * time.Minute)
				last.World.Recompute()
			}
			helper.Run(last, g)
		}()
	}
	wg.Wait()
	if after := worldDigest(tmpl, nil); after != before {
		t.Fatal("forking and running sessions changed the standard world template")
	}
	injected := slices.Concat(ids...)
	if len(injected) == 0 {
		t.Fatal("no scenario injected a fault")
	}
	for _, id := range injected {
		if tmpl.FaultActive(id) {
			t.Errorf("fault %s leaked into the standard world template", id)
		}
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
