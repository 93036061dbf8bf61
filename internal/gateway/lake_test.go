package gateway

// Tests for the gateway's data-lake face: every 201'd incident is in
// the lake (event stream included) before the ack leaves, the
// GET /v1/lake/... query surface serves the derived views, a lakeless
// daemon answers 503, and the on-disk log reopens with everything the
// HTTP caller was promised.

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/obs"
)

// newLakeStack is newTestStack plus a data lake in a temp directory.
func newLakeStack(t *testing.T) (*testStack, *lake.Lake, string) {
	t.Helper()
	dir := t.TempDir()
	dl, _, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dl.Close() })
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	sink := obs.NewSink()
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		OCEs: 2, QueueLimit: 8, Obs: sink, RunnerName: runner.Name(),
	})
	clock := NewSimClock()
	gw := NewServer(Config{
		Keys:  map[string]string{"k": "tenant"},
		Clock: clock, Sched: sched, Runner: runner, Seed: 7,
		Sink: sink, SimControl: true, Lake: dl,
	})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return &testStack{ts: ts, sched: sched, clock: clock, sink: sink}, dl, dir
}

func TestLakeIngestOnCreate(t *testing.T) {
	t.Parallel()
	st, dl, dir := newLakeStack(t)

	code, _ := st.do(t, "POST", "/v1/incidents", "k", `{"id":"inc-a","scenario":"cascade-5","severity":"sev1"}`)
	if code != 201 {
		t.Fatalf("create: status %d", code)
	}
	code, _ = st.do(t, "POST", "/v1/incidents", "k", `{"id":"inc-b","scenario":"gray-link"}`)
	if code != 201 {
		t.Fatalf("create: status %d", code)
	}

	// Full entry, event stream included.
	code, body := st.do(t, "GET", "/v1/lake/incidents/inc-a", "k", "")
	if code != 200 {
		t.Fatalf("lake get: status %d: %s", code, body)
	}
	var e lake.Entry
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("lake get: %v", err)
	}
	if e.Scenario != "cascade-5" || e.Runner != "assisted-helper" || e.Region != fleet.DefaultRegion {
		t.Errorf("entry header wrong: %+v", e)
	}
	if len(e.Events) == 0 {
		t.Error("lake entry has no event stream")
	}
	if e.Seed != DeriveSeed(7, "inc-a") {
		t.Errorf("entry seed %d, want the (base,id)-derived %d", e.Seed, DeriveSeed(7, "inc-a"))
	}

	code, body = st.do(t, "GET", "/v1/lake/incidents/inc-zzz", "k", "")
	if code != 404 || !strings.Contains(body, "not_found") {
		t.Errorf("missing entry: status %d body %s", code, body)
	}

	// Derived views over both ingests.
	code, body = st.do(t, "GET", "/v1/lake/stats", "k", "")
	if code != 200 {
		t.Fatalf("lake stats: status %d", code)
	}
	var stats lake.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 2 || len(stats.Classes) != 2 {
		t.Errorf("stats: %d entries, %d classes; want 2 and 2", stats.Entries, len(stats.Classes))
	}

	code, body = st.do(t, "GET", "/v1/lake/tags", "k", "")
	if code != 200 || !strings.Contains(body, `"tag"`) {
		t.Errorf("lake tags: status %d body %s", code, body)
	}
	code, body = st.do(t, "GET", "/v1/lake/tags/cascade-5", "k", "")
	if code != 200 || !strings.Contains(body, `"inc-a"`) || strings.Contains(body, `"inc-b"`) {
		t.Errorf("by-tag: status %d body %s", code, body)
	}
	if code, _ := st.do(t, "GET", "/v1/lake/mitigations", "k", ""); code != 200 {
		t.Errorf("lake mitigations: status %d", code)
	}
	if code, _ := st.do(t, "GET", "/v1/lake/stats", "", ""); code != 401 {
		t.Errorf("unauthenticated lake query: status %d, want 401", code)
	}

	// The entries were fsync'd before the 201s: a cold reopen of the
	// directory sees both, bit for bit.
	want, _ := dl.Get("inc-a")
	l2, rr, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rr.Entries != 2 || rr.Dropped != 0 {
		t.Fatalf("reopen: %d entries %d dropped, want 2 and 0", rr.Entries, rr.Dropped)
	}
	got, ok := l2.Get("inc-a")
	if !ok {
		t.Fatal("inc-a lost on reopen")
	}
	if got.ID != want.ID || got.TTMMinutes != want.TTMMinutes || len(got.Events) != len(want.Events) {
		t.Errorf("reopen drifted: got %+v want %+v", got, want)
	}
}

// TestLakeUnavailableWithoutLake: the endpoints exist on every gateway
// but answer a stable 503 "unavailable" when no lake is configured —
// same contract as /metrics without a sink.
func TestLakeUnavailableWithoutLake(t *testing.T) {
	t.Parallel()
	st := newTestStack(t, 1, 4)
	for _, path := range []string{
		"/v1/lake/stats", "/v1/lake/mitigations", "/v1/lake/tags",
		"/v1/lake/tags/mitigated", "/v1/lake/incidents/inc-a",
	} {
		code, body := st.do(t, "GET", path, "k-tenant-a", "")
		if code != 503 || !strings.Contains(body, "unavailable") {
			t.Errorf("%s: status %d body %s, want 503 unavailable", path, code, body)
		}
	}
}
