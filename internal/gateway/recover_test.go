package gateway

// Boot-recovery coverage for the parallel re-run: the recovered state
// must not depend on how many workers re-ran the sessions, and a
// session that panics (or an arrival the scheduler refuses) must fail
// the boot by name without stranding a pooled recorder.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/scenarios"
)

// recoverJournal is a crashed store's replay: n accepted incidents
// spread over the regions and every scenario, every seventh one later
// resolved by its caller, a few re-prioritized, and one shed record.
func recoverJournal(n int, regions []string) journal.ReplayResult {
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
			AtMinutes: float64(n) * 2.5, Status: "resolved", Note: "tenant-a: fixed",
		})
	}
	for i := 3; i < n; i += 11 {
		sev := 0
		recs = append(recs, journal.Record{
			V: journal.Version, Kind: journal.KindPatched, ID: fmt.Sprintf("inc-%d", i+1),
			AtMinutes: float64(n) * 2.5, Severity: &sev,
		})
	}
	recs = append(recs, journal.Record{V: journal.Version, Kind: journal.KindShed, ID: "inc-2", AtMinutes: 2.5})
	return journal.ReplayResult{Records: recs}
}

// recoverServer builds a gateway the way aiopsd -sim -regions -steal
// does, over the given runner, without a journal or lake.
func recoverServer(runner harness.Runner, regions []string) (*Server, *obs.Sink) {
	sink := obs.NewLogSink()
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: regions, OCEs: 3, Policy: fleet.SeverityAging,
		QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
		Obs: sink, RunnerName: runner.Name(),
	})
	return NewServer(Config{
		Keys:  map[string]string{"k": "tenant-a"},
		Clock: NewSimClock(), Sched: sched, Runner: runner, Seed: 7,
		Sink: sink, SimControl: true,
	}), sink
}

// recoveredState is everything a recovered gateway exposes.
type recoveredState struct {
	stats                 RecoverStats
	list, events, metrics string
}

func serveGet(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	req.Header.Set("X-API-Key", "k")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", path, w.Code, w.Body)
	}
	return w.Body.String()
}

// TestRecoverWorkerIndependence re-runs the same journal at one and at
// four workers and requires identical stats, list, event log and
// metrics exposition. It must not run in parallel: it sets GOMAXPROCS.
func TestRecoverWorkerIndependence(t *testing.T) {
	regions := []string{"us-east", "eu-west", "ap-south"}
	rr := recoverJournal(72, regions)
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}

	boot := func(procs int) recoveredState {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		gw, sink := recoverServer(runner, regions)
		defer gw.Shutdown()
		stats, err := gw.Recover(rr)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: Recover: %v", procs, err)
		}
		var ev bytes.Buffer
		if err := sink.WriteEvents(&ev); err != nil {
			t.Fatal(err)
		}
		h := gw.Handler()
		return recoveredState{
			stats:   stats,
			list:    serveGet(t, h, "/v1/incidents?limit=200"),
			events:  ev.String(),
			metrics: serveGet(t, h, "/metrics"),
		}
	}
	one, four := boot(1), boot(4)
	if want := (RecoverStats{Records: len(rr.Records), Reoffered: 61, Resolved: 11}); one.stats != want {
		t.Fatalf("GOMAXPROCS=1 stats = %+v, want %+v", one.stats, want)
	}
	if four.stats != one.stats {
		t.Errorf("stats: GOMAXPROCS=4 %+v, GOMAXPROCS=1 %+v", four.stats, one.stats)
	}
	if four.list != one.list {
		t.Errorf("list JSON differs between GOMAXPROCS=1 and 4")
	}
	if four.events != one.events {
		t.Errorf("sink event log differs between GOMAXPROCS=1 and 4")
	}
	if four.metrics != one.metrics {
		t.Errorf("/metrics differs between GOMAXPROCS=1 and 4")
	}
	for _, region := range regions {
		if !strings.Contains(one.metrics, fmt.Sprintf("region=%q", region)) {
			t.Errorf("/metrics has no series for region %s", region)
		}
	}
}

// recordingRunner is an observed runner that hands out canned results,
// remembers which incident each recorder it was given belongs to, and
// panics on one ID.
type recordingRunner struct {
	panicOn string
	mu      sync.Mutex
	recs    map[*obs.Recorder]int // recorder -> incident number
}

func (r *recordingRunner) Name() string { return "recording" }

func (r *recordingRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	return r.RunObserved(in, seed, nil)
}

func (r *recordingRunner) RunObserved(in *scenarios.Instance, seed int64, o obs.Observer) harness.Result {
	if rec, ok := o.(*obs.Recorder); ok {
		var n int
		fmt.Sscanf(in.Incident.ID, "inc-%d", &n)
		r.mu.Lock()
		r.recs[rec] = n
		r.mu.Unlock()
		rec.Emit(obs.Event{Type: obs.EvSessionStart, Seed: seed})
	}
	if in.Incident.ID == r.panicOn {
		panic("session blew up")
	}
	return harness.Result{Mitigated: true, TTM: 10 * time.Minute}
}

// TestRecoverErrorReleasesRecorders fails a boot two ways — a session
// that panics, and an arrival the scheduler refuses — and requires an
// error naming the incident and a released recorder for every session
// the scheduler did not take. Of the 20 journaled incidents inc-1,
// inc-8 and inc-15 are resolved, so 17 sessions re-run.
func TestRecoverErrorReleasesRecorders(t *testing.T) {
	regions := []string{"us-east", "eu-west"}
	released := func(rec *obs.Recorder) bool { return rec.Session == "" && len(rec.Events) == 0 }
	boot := func(t *testing.T, rr journal.ReplayResult, panicOn string) (*recordingRunner, RecoverStats, error) {
		t.Helper()
		runner := &recordingRunner{panicOn: panicOn, recs: map[*obs.Recorder]int{}}
		gw, _ := recoverServer(runner, regions)
		defer gw.Shutdown()
		stats, err := gw.Recover(rr)
		if !gw.ready.Load() {
			t.Error("a failed boot must still flip /readyz")
		}
		if len(runner.recs) != 17 {
			t.Fatalf("runner saw %d recorders, want 17", len(runner.recs))
		}
		return runner, stats, err
	}

	t.Run("panic", func(t *testing.T) {
		runner, _, err := boot(t, recoverJournal(20, regions), "inc-9")
		if err == nil || !strings.Contains(err.Error(), "recover inc-9:") || !strings.Contains(err.Error(), "session blew up") {
			t.Fatalf("Recover error = %v, want one naming inc-9 and the panic", err)
		}
		for rec, n := range runner.recs {
			if !released(rec) {
				t.Errorf("inc-%d: recorder not released after a failed boot", n)
			}
		}
	})

	t.Run("offer", func(t *testing.T) {
		rr := recoverJournal(20, regions)
		for i, r := range rr.Records {
			if r.ID == "inc-12" && r.Kind == journal.KindAccepted {
				rr.Records[i].Region = "nowhere"
			}
		}
		runner, stats, err := boot(t, rr, "")
		if err == nil || !strings.Contains(err.Error(), "recover inc-12:") {
			t.Fatalf("Recover error = %v, want one naming inc-12", err)
		}
		if stats.Reoffered != 9 {
			t.Fatalf("Reoffered = %d, want 9 (inc-2..inc-11 less inc-8)", stats.Reoffered)
		}
		for rec, n := range runner.recs {
			if offered := n < 12; released(rec) == offered {
				t.Errorf("inc-%d: offered %v, recorder released %v", n, offered, released(rec))
			}
		}
	})
}
