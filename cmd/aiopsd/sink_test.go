package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/obs"
)

// TestDaemonSinkExports wires the daemon's sink the way main does and
// serves three incidents: with -trace-out the shutdown export is the
// full event log, every session's start and end in seq order; with
// -metrics-out alone the sink keeps no events and the metrics still
// count every session.
func TestDaemonSinkExports(t *testing.T) {
	for _, trace := range []bool{true, false} {
		dir := t.TempDir()
		tracePath, metricsPath := filepath.Join(dir, "events.jsonl"), filepath.Join(dir, "metrics.prom")
		fs := flag.NewFlagSet("aiopsd", flag.ContinueOnError)
		c := cliflags.Register(fs, 7)
		args := []string{"-metrics-out", metricsPath}
		if trace {
			args = append(args, "-trace-out", tracePath)
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		sink := daemonSink(c)
		kbase := kb.Default()
		kb.ApplyFastpathUpdate(kbase)
		runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
		sched := fleet.NewSharded(fleet.ShardedLiveConfig{OCEs: 3, QueueLimit: 8, Obs: sink, RunnerName: runner.Name()})
		gw := gateway.NewServer(gateway.Config{
			Keys: map[string]string{"k": "tenant"}, Clock: gateway.NewSimClock(),
			Sched: sched, Runner: runner, Seed: c.Seed, Sink: sink, SimControl: true,
		})
		ids := []string{"exp-1", "exp-2", "exp-3"}
		for i, id := range ids {
			req := httptest.NewRequest("POST", "/v1/incidents",
				strings.NewReader(fmt.Sprintf(`{"id":%q,"scenario":"gray-link","opened_at_minutes":%d}`, id, i)))
			req.Header.Set("X-API-Key", "k")
			w := httptest.NewRecorder()
			gw.Handler().ServeHTTP(w, req)
			if w.Code != 201 {
				t.Fatalf("create %s: HTTP %d: %s", id, w.Code, w.Body)
			}
		}
		gw.Shutdown()
		sched.DrainSharded()
		if err := c.Export(); err != nil {
			t.Fatal(err)
		}

		metrics, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(metrics), `aiops_sessions_total{outcome="mitigated",runner="assisted-helper"} 3`) {
			t.Fatalf("trace=%v: metrics miss the three sessions:\n%s", trace, metrics)
		}
		if !trace {
			if n := len(sink.Events()); n != 0 {
				t.Fatalf("-metrics-out alone: sink retains %d events, want 0", n)
			}
			if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
				t.Fatalf("-metrics-out alone wrote a trace: %v", err)
			}
			continue
		}
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var events []obs.Event
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		for {
			var e obs.Event
			if err := dec.Decode(&e); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			events = append(events, e)
		}
		f.Close()
		seen := map[string]int{}
		for i, e := range events {
			if e.Seq != int64(i+1) {
				t.Fatalf("-trace-out: event %d has seq %d: the log has a gap", i, e.Seq)
			}
			if e.Type == obs.EvSessionStart || e.Type == obs.EvSessionEnd {
				seen[e.Session]++
			}
		}
		for _, id := range ids {
			if seen["gw/"+id] != 2 {
				t.Fatalf("-trace-out: %s has %d session start/end events, want 2", id, seen["gw/"+id])
			}
		}
	}
}
