package gateway

// Durability and overload-protection coverage: the write-ahead journal
// round trip through the HTTP surface, boot recovery (records, notes,
// sequence resume, readiness), per-caller rate limiting, queue-depth
// shedding, the request body cap, and the SSE stream's exemption from
// the server WriteTimeout.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// newStackWith is newTestStack with access to the Server and a Config
// hook for the durability/overload knobs.
func newStackWith(t *testing.T, oces, queueLimit int, mut func(*Config)) (*testStack, *Server) {
	t.Helper()
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	sink := obs.NewSink()
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		OCEs: oces, QueueLimit: queueLimit,
		Obs: sink, RunnerName: runner.Name(),
	})
	clock := NewSimClock()
	cfg := Config{
		Keys:  map[string]string{"k-tenant-a": "tenant-a", "k-tenant-b": "tenant-b"},
		Clock: clock, Sched: sched, Runner: runner, Seed: 7,
		Sink: sink, SimControl: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	gw := NewServer(cfg)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return &testStack{ts: ts, sched: sched, clock: clock, sink: sink}, gw
}

// TestJournalRecoverRoundTrip drives a journaled gateway through
// creates and patches over HTTP, rebuilds a fresh stack over the same
// journal directory, and checks recovery restores every acknowledged
// fact: statuses, notes, severities, the ID sequence, readiness, and
// exactly one scheduler slot per unresolved incident.
func TestJournalRecoverRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	// Life A: accept three incidents, patch two, then "crash" (close
	// without drain — every ack is already fsync'd).
	jr, rr, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stA, gwA := newStackWith(t, 2, 8, func(c *Config) { c.Journal = jr })
	if _, err := gwA.Recover(rr); err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{
		`{"scenario":"gray-link","opened_at_minutes":0}`,
		`{"scenario":"congestion","opened_at_minutes":5}`,
		`{"id":"custom-7","scenario":"device-failure","opened_at_minutes":9}`,
	} {
		if status, resp := stA.do(t, "POST", "/v1/incidents", "k-tenant-a", body); status != http.StatusCreated {
			t.Fatalf("create %d: HTTP %d: %s", i, status, resp)
		}
	}
	if status, resp := stA.do(t, "PATCH", "/v1/incidents/inc-0001", "k-tenant-a",
		`{"status":"investigating","severity":"sev1","note":"checking spines"}`); status != http.StatusOK {
		t.Fatalf("patch inc-0001: HTTP %d: %s", status, resp)
	}
	if status, resp := stA.do(t, "PATCH", "/v1/incidents/inc-0002", "k-tenant-b",
		`{"status":"resolved","note":"false alarm"}`); status != http.StatusOK {
		t.Fatalf("patch inc-0002: HTTP %d: %s", status, resp)
	}
	stA.ts.Close()
	jr.Close()

	// Life B: recover from the journal alone.
	jr2, rr2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	stB, gwB := newStackWith(t, 2, 8, func(c *Config) { c.Journal = jr2 })
	if status, body := stB.do(t, "GET", "/readyz", "", ""); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz before recovery: HTTP %d: %s", status, body)
	}
	stats, err := gwB.Recover(rr2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 5 || stats.Dropped != 0 || stats.Reoffered != 2 || stats.Resolved != 1 {
		t.Fatalf("recover stats = %+v, want 5 records, 2 re-offered, 1 resolved", stats)
	}
	if status, body := stB.do(t, "GET", "/readyz", "", ""); status != http.StatusOK {
		t.Fatalf("readyz after recovery: HTTP %d: %s", status, body)
	}

	var got Record
	for id, want := range map[string]struct {
		status, sev string
		note        string
	}{
		"inc-0001": {"investigating", "sev1", "tenant-a: checking spines"},
		"inc-0002": {"resolved", "", "tenant-b: false alarm"},
		"custom-7": {"open", "", ""},
	} {
		status, body := stB.do(t, "GET", "/v1/incidents/"+id, "k-tenant-a", "")
		if status != http.StatusOK {
			t.Fatalf("get %s: HTTP %d: %s", id, status, body)
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if got.Status != want.status {
			t.Errorf("%s: status %q, want %q", id, got.Status, want.status)
		}
		if want.sev != "" && got.Severity.String() != want.sev {
			t.Errorf("%s: severity %v, want %s", id, got.Severity, want.sev)
		}
		if want.note != "" && (len(got.Notes) != 1 || got.Notes[0] != want.note) {
			t.Errorf("%s: notes %q, want [%q]", id, got.Notes, want.note)
		}
	}

	// The auto-ID sequence resumed past the journaled inc-0002.
	status, body := stB.do(t, "POST", "/v1/incidents", "k-tenant-a", `{"scenario":"gray-link","opened_at_minutes":20}`)
	if status != http.StatusCreated {
		t.Fatalf("post-recovery create: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil || got.ID != "inc-0003" {
		t.Fatalf("post-recovery id = %q (err %v), want inc-0003", got.ID, err)
	}

	// Exactly one slot per unresolved incident: 2 re-offered + 1 new.
	// The caller-resolved inc-0002 must not burn a responder again.
	var sum DrainSummary
	status, body = stB.do(t, "POST", "/v1/sim/drain", "k-tenant-a", "")
	if status != http.StatusOK {
		t.Fatalf("drain: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Incidents != 3 {
		t.Fatalf("drained %d incidents, want 3 (resolved incident re-offered?)", sum.Incidents)
	}
}

// TestRateLimitPerCaller pins the token-bucket contract on the sim
// clock: deterministic 429s once the burst is spent, Retry-After
// rendered in seconds, per-caller isolation, and refill with simulated
// time.
func TestRateLimitPerCaller(t *testing.T) {
	t.Parallel()
	st, _ := newStackWith(t, 1, 0, func(c *Config) { c.RatePerMin = 1; c.Burst = 2 })
	post := func(key string) (int, string, http.Header) {
		req, err := http.NewRequest("POST", st.ts.URL+"/v1/incidents", strings.NewReader(`{"scenario":"gray-link"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := st.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		_, _ = fmt.Fprint(&sb, resp.Header.Get("Retry-After"))
		return resp.StatusCode, sb.String(), resp.Header
	}
	for i := 0; i < 2; i++ {
		if status, _, _ := post("k-tenant-a"); status != http.StatusCreated {
			t.Fatalf("burst request %d: HTTP %d", i, status)
		}
	}
	status, retry, _ := post("k-tenant-a")
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: HTTP %d, want 429", status)
	}
	if retry != "1" {
		t.Fatalf("Retry-After = %q, want %q (1 sim minute at fallback scale)", retry, "1")
	}
	// Another caller's bucket is untouched.
	if status, _, _ := post("k-tenant-b"); status != http.StatusCreated {
		t.Fatalf("tenant-b: HTTP %d, want 201", status)
	}
	// One simulated minute accrues exactly one token.
	if status, body := st.do(t, "POST", "/v1/sim/advance", "k-tenant-a", `{"minutes":1}`); status != http.StatusOK {
		t.Fatalf("advance: HTTP %d: %s", status, body)
	}
	if status, _, _ := post("k-tenant-a"); status != http.StatusCreated {
		t.Fatalf("post-refill: HTTP %d, want 201", status)
	}
	if status, _, _ := post("k-tenant-a"); status != http.StatusTooManyRequests {
		t.Fatalf("second post-refill: HTTP %d, want 429", status)
	}
	if _, body := st.do(t, "GET", "/metrics", "", ""); !strings.Contains(body, `aiops_gateway_throttled_total{caller="tenant-a"} 2`) {
		t.Error("throttle counter missing from /metrics")
	}
}

// TestBodyCap413 is the oversized-payload contract: a body past the cap
// is refused with a field-blamed 413 naming the limit, while a
// same-shape small request sails through.
func TestBodyCap413(t *testing.T) {
	t.Parallel()
	st, _ := newStackWith(t, 1, 0, func(c *Config) { c.MaxBody = 128 })
	if status, body := st.do(t, "POST", "/v1/incidents", "k-tenant-a",
		`{"scenario":"gray-link","opened_at_minutes":0}`); status != http.StatusCreated {
		t.Fatalf("small body: HTTP %d: %s", status, body)
	}
	big := fmt.Sprintf(`{"scenario":"gray-link","title":%q}`, strings.Repeat("x", 200))
	status, body := st.do(t, "POST", "/v1/incidents", "k-tenant-a", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d: %s", status, body)
	}
	if !strings.Contains(body, `"field":"body"`) || !strings.Contains(body, "exceeds the 128-byte request cap") {
		t.Fatalf("413 not field-blamed: %s", body)
	}
}

// TestShedDepth503 covers queue-depth load shedding: once the in-flight
// count reaches the bound, creates get a 503 with Retry-After before
// any session runs, and acceptance resumes when the backlog drains.
func TestShedDepth503(t *testing.T) {
	t.Parallel()
	st, _ := newStackWith(t, 1, 8, func(c *Config) { c.ShedDepth = 1 })
	if status, body := st.do(t, "POST", "/v1/incidents", "k-tenant-a",
		`{"id":"shed-1","scenario":"gray-link","opened_at_minutes":0}`); status != http.StatusCreated {
		t.Fatalf("first create: HTTP %d: %s", status, body)
	}
	req, err := http.NewRequest("POST", st.ts.URL+"/v1/incidents",
		strings.NewReader(`{"id":"shed-2","scenario":"gray-link","opened_at_minutes":0}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "k-tenant-a")
	resp, err := st.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("at shed depth: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	// Drain the backlog; acceptance resumes.
	if status, body := st.do(t, "POST", "/v1/sim/advance", "k-tenant-a", `{"minutes":10000}`); status != http.StatusOK {
		t.Fatalf("advance: HTTP %d: %s", status, body)
	}
	if status, body := st.do(t, "POST", "/v1/incidents", "k-tenant-a",
		`{"id":"shed-3","scenario":"gray-link"}`); status != http.StatusCreated {
		t.Fatalf("post-drain create: HTTP %d: %s", status, body)
	}
	if _, body := st.do(t, "GET", "/metrics", "", ""); !strings.Contains(body, "aiops_gateway_shed_total 1") {
		t.Error("shed counter missing from /metrics")
	}
}

// TestHealthzReadyzLifecycle: healthz is pure liveness (no auth, always
// 200 while serving); readyz flips to 503 at Shutdown so load balancers
// stop routing before the drain starts.
func TestHealthzReadyzLifecycle(t *testing.T) {
	t.Parallel()
	st, gw := newStackWith(t, 1, 0, nil)
	if status, body := st.do(t, "GET", "/healthz", "", ""); status != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: HTTP %d: %q", status, body)
	}
	// No journal configured: ready from construction.
	if status, _ := st.do(t, "GET", "/readyz", "", ""); status != http.StatusOK {
		t.Fatalf("readyz: HTTP %d, want 200", status)
	}
	gw.Shutdown()
	if status, body := st.do(t, "GET", "/readyz", "", ""); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: HTTP %d: %s", status, body)
	}
	if status, _ := st.do(t, "GET", "/healthz", "", ""); status != http.StatusOK {
		t.Fatal("healthz must stay 200 while the listener drains")
	}
}

// instantRunner resolves immediately: keeps non-SSE responses well
// inside the deliberately tiny server WriteTimeout below, even with the
// race detector slowing sessions down.
type instantRunner struct{}

func (instantRunner) Name() string { return "instant" }
func (instantRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	return harness.Result{TTM: time.Minute, Mitigated: true, Correct: true}
}

// TestSSEWriteTimeoutExemptAndShutdown: the SSE stream outlives the
// server's WriteTimeout (the handler clears its per-request deadline)
// and ends promptly at Shutdown instead of hanging the drain.
func TestSSEWriteTimeoutExemptAndShutdown(t *testing.T) {
	t.Parallel()
	runner := instantRunner{}
	sink := obs.NewSink()
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{OCEs: 1, Obs: sink, RunnerName: runner.Name()})
	clock := NewSimClock()
	gw := NewServer(Config{
		Keys:  map[string]string{"k-tenant-a": "tenant-a"},
		Clock: clock, Sched: sched, Runner: runner, Seed: 7,
		Sink: sink, SimControl: true,
	})
	// The stub runner emits no session events, but the fleet's own
	// fleet-incident event carries the "gw/<id>" session label the
	// stream assertion below looks for.
	ts := httptest.NewUnstartedServer(gw.Handler())
	ts.Config.WriteTimeout = 150 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)
	st := &testStack{ts: ts, sched: sched, clock: clock, sink: sink}

	req, err := http.NewRequest("GET", ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "k-tenant-a")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}

	// Outlive the WriteTimeout, then trigger traffic: a stream bound by
	// the server deadline would already be severed here.
	time.Sleep(3 * ts.Config.WriteTimeout)
	if status, body := st.do(t, "POST", "/v1/incidents", "k-tenant-a",
		`{"id":"sse-to-1","scenario":"gray-link","opened_at_minutes":0}`); status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", status, body)
	}
	if status, body := st.do(t, "POST", "/v1/sim/advance", "k-tenant-a", `{"minutes":1}`); status != http.StatusOK {
		t.Fatalf("advance: HTTP %d: %s", status, body)
	}
	scan := bufio.NewScanner(resp.Body)
	saw := false
	for scan.Scan() {
		if strings.Contains(scan.Text(), "gw/sse-to-1") {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatalf("stream severed before the event arrived: %v", scan.Err())
	}

	// Shutdown closes every subscriber stream; the body must EOF
	// instead of blocking the HTTP drain forever.
	gw.Shutdown()
	eof := make(chan error, 1)
	go func() {
		for scan.Scan() {
		}
		eof <- scan.Err()
	}()
	select {
	case err := <-eof:
		if err != nil {
			t.Fatalf("stream ended with %v, want clean EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open 5s after Shutdown")
	}
}
