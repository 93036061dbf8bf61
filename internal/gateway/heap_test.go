package gateway

import (
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/obs"
)

// heapSlackPerIncident is what an acknowledged incident may keep live
// beyond its lake entry's bytes: the gateway record and the scheduler's
// finished outcome, which carries a harness.Result. Measured at ~0.7 KB
// (9.1 KB per incident against 8.4 KB of lake per entry); a sink that
// logged every event read 22.5 KB per incident here.
const heapSlackPerIncident = 4 << 10

// TestDaemonHeapPerIncident bounds the daemon's memory per incident:
// with journal, lake and a default sink (the way aiopsd runs without
// -trace-out), the sink retains no events, and the live heap grows per
// acknowledged incident by no more than the lake's bytes per entry
// plus heapSlackPerIncident.
func TestDaemonHeapPerIncident(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1,500 helper sessions")
	}
	dir := t.TempDir()
	jr, rr, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	dl, _, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	sink := obs.NewSink()
	regions := []string{"r0", "r1", "r2", "r3"}
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: regions, OCEs: 3, Policy: fleet.SeverityAging,
		QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
		Obs: sink, RunnerName: runner.Name(),
	})
	gw := NewServer(Config{
		Keys: map[string]string{"k": "tenant"}, Clock: NewSimClock(),
		Sched: sched, Runner: runner, Seed: 7, Sink: sink, SimControl: true,
		Journal: jr, Lake: dl,
	})
	if _, err := gw.Recover(rr); err != nil {
		t.Fatal(err)
	}
	h := gw.Handler()
	send := func(method, path, body string) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("X-API-Key", "k")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code/100 != 2 {
			t.Fatalf("%s %s: HTTP %d: %s", method, path, w.Code, w.Body)
		}
	}
	classes := []string{"device-failure", "gray-link", "congestion", "cascade-5", "novel-protocol", "maintenance-overlap"}
	next := 0
	post := func(n int) {
		for end := next + n; next < end; next++ {
			send("POST", "/v1/incidents", fmt.Sprintf(`{"id":"heap-%05d","scenario":%q,"region":%q,"opened_at_minutes":%d}`,
				next, classes[next%len(classes)], regions[next%len(regions)], next))
			send("POST", "/v1/sim/advance", fmt.Sprintf(`{"to_minutes":%d}`, next))
		}
	}
	live := func() (heap uint64, lakeBytes int64) {
		runtime.GC()
		runtime.GC() // the second cycle empties the recorder pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fi, err := os.Stat(dl.Path())
		if err != nil {
			t.Fatal(err)
		}
		return ms.HeapAlloc, fi.Size()
	}

	post(300)
	heap0, lake0 := live()
	const more = 1200
	post(more)
	heap1, lake1 := live()

	if n := len(sink.Events()); n != 0 {
		t.Fatalf("default sink retains %d events, want 0", n)
	}
	perIncident := (float64(heap1) - float64(heap0)) / more
	lakePerEntry := float64(lake1-lake0) / more
	t.Logf("live heap %.1f → %.1f MB: %.1f KB per incident; lake %.1f KB per entry",
		float64(heap0)/(1<<20), float64(heap1)/(1<<20), perIncident/1024, lakePerEntry/1024)
	if limit := lakePerEntry + heapSlackPerIncident; perIncident > limit {
		t.Fatalf("live heap grows %.1f KB per incident, over the lake's %.1f KB per entry plus %d KB slack",
			perIncident/1024, lakePerEntry/1024, heapSlackPerIncident>>10)
	}
}
