package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/obs"
)

// testStack is one in-process gateway on a real loopback socket: the
// HTTP surface end to end, on a simulated clock.
type testStack struct {
	ts    *httptest.Server
	sched fleet.Scheduler
	clock *SimClock
	sink  *obs.Sink
}

func newTestStack(t *testing.T, oces, queueLimit int) *testStack {
	t.Helper()
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	sink := obs.NewLogSink()
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: []string{"default", "eu-west"},
		OCEs:    oces, QueueLimit: queueLimit,
		Obs: sink, RunnerName: runner.Name(),
	})
	clock := NewSimClock()
	gw := NewServer(Config{
		Keys:  map[string]string{"k-tenant-a": "tenant-a", "k-tenant-b": "tenant-b"},
		Clock: clock, Sched: sched, Runner: runner, Seed: 7,
		Sink: sink, SimControl: true,
	})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return &testStack{ts: ts, sched: sched, clock: clock, sink: sink}
}

// do sends one request and returns (status, body).
func (st *testStack) do(t *testing.T, method, path, key, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, st.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := st.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test ./internal/gateway/)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenHTTPTranscript pins the whole HTTP surface byte for byte:
// every create/update/get path, every error status in the taxonomy
// (400/401/404/409/422/503), the sim-control endpoints, and the drain
// summary — one scripted conversation against a 1-OCE, queue-bound-1
// fleet on seed 7, in the style of testdata/imctl_fleet_seed7.txt.
func TestGoldenHTTPTranscript(t *testing.T) {
	t.Parallel()
	st := newTestStack(t, 1, 1)
	steps := []struct {
		method, path, key, body string
	}{
		{"POST", "/v1/incidents", "k-tenant-a", `{"id":"inc-a","scenario":"gray-link","severity":"sev2","title":"Optical degradation on backbone","opened_at_minutes":0}`},
		{"POST", "/v1/incidents", "k-tenant-a", `{"id":"inc-a","scenario":"gray-link"}`},
		{"POST", "/v1/incidents", "", `{"scenario":"gray-link"}`},
		{"POST", "/v1/incidents", "k-wrong", `{"scenario":"gray-link"}`},
		{"POST", "/v1/incidents", "k-tenant-a", `{"scenario":"gray-link","severity":"sev9"}`},
		{"POST", "/v1/incidents", "k-tenant-a", `{"scenario":"no-such-scenario"}`},
		{"POST", "/v1/incidents", "k-tenant-a", `{"scenario":"gray-link","color":"red"}`},
		{"POST", "/v1/incidents", "k-tenant-a", `{"scenario":`},
		{"GET", "/v1/incidents/inc-a", "k-tenant-b", ""},
		{"POST", "/v1/sim/advance", "k-tenant-a", `{"minutes":1}`},
		{"GET", "/v1/incidents/inc-a", "k-tenant-a", ""},
		{"POST", "/v1/incidents", "k-tenant-b", `{"id":"inc-b","scenario":"device-failure","opened_at_minutes":2}`},
		{"POST", "/v1/incidents", "k-tenant-b", `{"id":"inc-c","scenario":"congestion","opened_at_minutes":3}`},
		{"POST", "/v1/incidents", "k-tenant-b", `{"id":"inc-d","scenario":"false-alarm","opened_at_minutes":4}`},
		{"POST", "/v1/incidents", "k-tenant-b", `{"id":"inc-eu","scenario":"gray-link","region":"eu-west","opened_at_minutes":5}`},
		{"POST", "/v1/incidents", "k-tenant-a", `{"scenario":"gray-link","region":"mars"}`},
		{"POST", "/v1/sim/advance", "k-tenant-a", `{"minutes":10}`},
		{"GET", "/v1/incidents/inc-b", "k-tenant-a", ""},
		{"GET", "/v1/incidents/inc-c", "k-tenant-a", ""},
		{"GET", "/v1/incidents/inc-eu", "k-tenant-a", ""},
		{"GET", "/v1/incidents?limit=2", "k-tenant-a", ""},
		{"GET", "/v1/incidents?region=eu-west", "k-tenant-a", ""},
		{"GET", "/v1/incidents?status=open&severity=sev2", "k-tenant-a", ""},
		{"GET", "/v1/incidents?limit=0", "k-tenant-a", ""},
		{"GET", "/v1/incidents?cursor=%21%21", "k-tenant-a", ""},
		{"GET", "/v1/incidents?status=bogus", "k-tenant-a", ""},
		{"PATCH", "/v1/incidents/inc-a", "k-tenant-b", `{"status":"investigating","note":"optics swapped, watching BER"}`},
		{"PATCH", "/v1/incidents/inc-a", "k-tenant-a", `{}`},
		{"PATCH", "/v1/incidents/inc-zzz", "k-tenant-a", `{"status":"resolved"}`},
		{"GET", "/v1/incidents/inc-zzz", "k-tenant-a", ""},
		{"POST", "/v1/sim/advance", "k-tenant-a", `{"to_minutes":2000}`},
		{"GET", "/v1/incidents/inc-a", "k-tenant-a", ""},
		{"PATCH", "/v1/incidents/inc-a", "k-tenant-a", `{"status":"resolved"}`},
		{"PATCH", "/v1/incidents/inc-a", "k-tenant-a", `{"status":"open"}`},
		{"POST", "/v1/sim/drain", "k-tenant-a", ``},
		{"POST", "/v1/incidents", "k-tenant-a", `{"id":"inc-late","scenario":"gray-link"}`},
	}
	var b strings.Builder
	for _, s := range steps {
		key := s.key
		if key == "" {
			key = "(none)"
		}
		fmt.Fprintf(&b, "### %s %s key=%s\n", s.method, s.path, key)
		if s.body != "" {
			fmt.Fprintf(&b, ">>> %s\n", s.body)
		}
		status, resp := st.do(t, s.method, s.path, s.key, s.body)
		fmt.Fprintf(&b, "<<< %d\n%s\n", status, resp)
	}
	compareGolden(t, "gateway_http_seed7.txt", b.String())
}

// TestGoldenMetricsScrape pins the GET /metrics exposition after the
// same scripted load: one small fleet run through the socket, then the
// Prometheus text scrape, byte for byte.
func TestGoldenMetricsScrape(t *testing.T) {
	t.Parallel()
	st := newTestStack(t, 1, 1)
	for i, sc := range []string{"gray-link", "device-failure", "congestion"} {
		body := fmt.Sprintf(`{"id":"m-%d","scenario":%q,"opened_at_minutes":%d}`, i, sc, i*30)
		if status, resp := st.do(t, "POST", "/v1/incidents", "k-tenant-a", body); status != http.StatusCreated {
			t.Fatalf("create %d: HTTP %d: %s", i, status, resp)
		}
	}
	if status, resp := st.do(t, "POST", "/v1/sim/drain", "k-tenant-a", ""); status != http.StatusOK {
		t.Fatalf("drain: HTTP %d: %s", status, resp)
	}
	status, scrape := st.do(t, "GET", "/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", status)
	}
	compareGolden(t, "gateway_metrics_seed7.prom", scrape)
}

// TestConcurrentClientSoak hammers one gateway with overlapping
// create/update/get traffic from many goroutine clients on the sim
// clock, including deliberate duplicate-ID contention, then drains and
// checks conservation: no incident lost, none duplicated, every accepted
// one resolved. Run under -race this is also the locking proof for the
// handler/scheduler/SSE paths.
func TestConcurrentClientSoak(t *testing.T) {
	t.Parallel()
	const (
		clients = 8
		perEach = 12
		nShared = 5 // IDs every client races to create
	)
	st := newTestStack(t, 3, 0) // unbounded queue: nothing may shed
	scenariosMix := []string{"gray-link", "device-failure", "congestion", "false-alarm"}

	var (
		mu          sync.Mutex
		created     int
		dupRejected int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				id := fmt.Sprintf("c%d-i%03d", c, i)
				body := fmt.Sprintf(`{"id":%q,"scenario":%q,"opened_at_minutes":%d}`,
					id, scenariosMix[(c+i)%len(scenariosMix)], i)
				status, resp := st.do(t, "POST", "/v1/incidents", "k-tenant-a", body)
				if status != http.StatusCreated {
					t.Errorf("create %s: HTTP %d: %s", id, status, resp)
					continue
				}
				mu.Lock()
				created++
				mu.Unlock()
				if status, resp = st.do(t, "PATCH", "/v1/incidents/"+id, "k-tenant-b",
					`{"status":"investigating","note":"ack"}`); status != http.StatusOK {
					t.Errorf("patch %s: HTTP %d: %s", id, status, resp)
				}
				if status, _ = st.do(t, "GET", "/v1/incidents/"+id, "k-tenant-a", ""); status != http.StatusOK {
					t.Errorf("get %s: HTTP %d", id, status)
				}
			}
			// Duplicate-ID contention: every client races to create the
			// same shared IDs; exactly one winner per ID.
			for k := 0; k < nShared; k++ {
				body := fmt.Sprintf(`{"id":"shared-%03d","scenario":"gray-link","opened_at_minutes":%d}`, k, 100+k)
				status, resp := st.do(t, "POST", "/v1/incidents", "k-tenant-a", body)
				switch status {
				case http.StatusCreated:
					mu.Lock()
					created++
					mu.Unlock()
				case http.StatusConflict:
					mu.Lock()
					dupRejected++
					mu.Unlock()
				default:
					t.Errorf("shared create %d: HTTP %d: %s", k, status, resp)
				}
			}
		}(c)
	}
	wg.Wait()

	wantCreated := clients*perEach + nShared
	if created != wantCreated {
		t.Fatalf("created %d incidents, want %d (lost or double-created)", created, wantCreated)
	}
	if wantDup := (clients - 1) * nShared; dupRejected != wantDup {
		t.Fatalf("%d duplicate rejections, want %d", dupRejected, wantDup)
	}

	status, resp := st.do(t, "POST", "/v1/sim/drain", "k-tenant-a", "")
	if status != http.StatusOK {
		t.Fatalf("drain: HTTP %d: %s", status, resp)
	}
	var sum DrainSummary
	if err := json.Unmarshal([]byte(resp), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Incidents != wantCreated || sum.Admitted != wantCreated || sum.Shed != 0 {
		t.Fatalf("conservation violated: %d incidents (%d admitted, %d shed), want %d/0 shed",
			sum.Incidents, sum.Admitted, sum.Shed, wantCreated)
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < perEach; i++ {
			id := fmt.Sprintf("c%d-i%03d", c, i)
			status, body := st.do(t, "GET", "/v1/incidents/"+id, "k-tenant-a", "")
			if status != http.StatusOK {
				t.Fatalf("post-drain get %s: HTTP %d", id, status)
			}
			var rec Record
			if err := json.Unmarshal([]byte(body), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.FleetState != string(fleet.StateResolved) {
				t.Fatalf("%s drained into state %q, want resolved", id, rec.FleetState)
			}
		}
	}
}

// TestSSEEventStream subscribes to /v1/events over the socket and
// checks that session events emitted by an incident's run are streamed
// as SSE data frames.
func TestSSEEventStream(t *testing.T) {
	t.Parallel()
	st := newTestStack(t, 1, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", st.ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "k-tenant-a")
	resp, err := st.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	if status, body := st.do(t, "POST", "/v1/incidents", "k-tenant-a",
		`{"id":"sse-1","scenario":"gray-link","opened_at_minutes":0}`); status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", status, body)
	}
	// The advance dispatches the incident, absorbing its session events
	// into the sink and notifying subscribers.
	if status, body := st.do(t, "POST", "/v1/sim/advance", "k-tenant-a", `{"minutes":1}`); status != http.StatusOK {
		t.Fatalf("advance: HTTP %d: %s", status, body)
	}

	scan := bufio.NewScanner(resp.Body)
	for scan.Scan() {
		line := scan.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		if ev.Session == "gw/sse-1" {
			return // saw the incident's stream: contract holds
		}
	}
	t.Fatalf("stream ended without an event for gw/sse-1: %v", scan.Err())
}

// TestSSEStreamsEveryEventInSeqOrder pins the push-based stream: a
// subscriber attached before any traffic receives every event the
// sink absorbs, in seq order, each framed as "data: <json.Marshal of
// the event>" exactly as the sink's log would encode it.
func TestSSEStreamsEveryEventInSeqOrder(t *testing.T) {
	t.Parallel()
	st := newTestStack(t, 1, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", st.ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "k-tenant-a")
	resp, err := st.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	for i, region := range []string{"default", "eu-west", "default", "eu-west"} {
		body := fmt.Sprintf(`{"id":"seq-%d","scenario":"gray-link","region":%q,"opened_at_minutes":%d}`, i, region, i)
		if status, out := st.do(t, "POST", "/v1/incidents", "k-tenant-a", body); status != http.StatusCreated {
			t.Fatalf("create %d: HTTP %d: %s", i, status, out)
		}
	}
	if status, out := st.do(t, "POST", "/v1/sim/drain", "k-tenant-a", ""); status != http.StatusOK {
		t.Fatalf("drain: HTTP %d: %s", status, out)
	}

	events := st.sink.Events()
	if len(events) == 0 {
		t.Fatal("sink absorbed no events")
	}
	want := bytes.NewBufferString(": aiopsd event stream\n\n")
	for i := range events {
		if events[i].Seq != int64(i+1) {
			t.Fatalf("sink event %d has seq %d", i, events[i].Seq)
		}
		line, err := json.Marshal(&events[i])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(want, "data: %s\n\n", line)
	}
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(resp.Body, got); err != nil {
		t.Fatalf("stream ended early: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream bytes differ from the sink log:\n--- got ---\n%s\n--- want ---\n%s", got, want.Bytes())
	}
}

// TestWallClockModeProgresses covers the non-sim half of the bridge:
// with a WallClock the watermark follows real time, so an accepted
// incident progresses to resolution without any explicit advance.
func TestWallClockModeProgresses(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{OCEs: 1, RunnerName: runner.Name()})
	// An aggressive scale (1 wall ms ≈ 1.4 simulated hours) so the
	// incident resolves within a few real milliseconds.
	gw := NewServer(Config{
		Keys:  map[string]string{"k": "tester"},
		Clock: NewWallClockAt(0, 5000*time.Minute), Sched: sched, Runner: runner, Seed: 7,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	st := &testStack{ts: ts}
	status, body := st.do(t, "POST", "/v1/incidents", "k", `{"id":"w-1","scenario":"gray-link"}`)
	if status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", status, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, body = st.do(t, "GET", "/v1/incidents/w-1", "k", "")
		var rec Record
		if err := json.Unmarshal([]byte(body), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.FleetState == string(fleet.StateResolved) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("incident never resolved under the wall clock: %s", body)
}

// TestSimEndpointsGated checks that a wall-clock service does not
// expose the deterministic-harness surface.
func TestSimEndpointsGated(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{OCEs: 1, RunnerName: runner.Name()})
	gw := NewServer(Config{
		Keys:  map[string]string{"k": "tester"},
		Clock: NewWallClockAt(0, 0), Sched: sched, Runner: runner, Seed: 7,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	st := &testStack{ts: ts}
	if status, _ := st.do(t, "POST", "/v1/sim/advance", "k", `{"minutes":1}`); status != http.StatusNotFound {
		t.Fatalf("sim advance exposed in wall mode: HTTP %d", status)
	}
	if status, _ := st.do(t, "POST", "/v1/sim/drain", "k", ""); status != http.StatusNotFound {
		t.Fatalf("sim drain exposed in wall mode: HTTP %d", status)
	}
}

// TestTranscriptConcurrencyIndependent reruns a miniature load (the
// same accepted arrival set, submitted at 1 and at 8 client goroutines)
// and asserts the drained summary and the full event log are
// byte-identical — the determinism contract through the socket, in
// unit-test form.
func TestTranscriptConcurrencyIndependent(t *testing.T) {
	t.Parallel()
	run := func(goroutines int) (string, string) {
		st := newTestStack(t, 2, 4)
		const n = 24
		idx := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					body := fmt.Sprintf(`{"id":"d-%03d","scenario":"gray-link","opened_at_minutes":%d}`, i, i*7)
					if status, resp := st.do(t, "POST", "/v1/incidents", "k-tenant-a", body); status != http.StatusCreated {
						t.Errorf("create %d: HTTP %d: %s", i, status, resp)
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
		_, sum := st.do(t, "POST", "/v1/sim/drain", "k-tenant-a", "")
		var ev bytes.Buffer
		if err := st.sink.WriteEvents(&ev); err != nil {
			t.Fatal(err)
		}
		return sum, ev.String()
	}
	sum1, ev1 := run(1)
	sum8, ev8 := run(8)
	if sum1 != sum8 {
		t.Errorf("drain summary depends on client concurrency:\n1: %s\n8: %s", sum1, sum8)
	}
	if ev1 != ev8 {
		t.Error("event log depends on client concurrency")
	}
}

// TestReadsRaceFreeUnderNotePatches: GET and list render a record while
// PATCHes append notes and flip status and severity on the same
// incident. Reads must snapshot the record under the gateway lock, so
// `go test -race` stays clean.
func TestReadsRaceFreeUnderNotePatches(t *testing.T) {
	t.Parallel()
	st := newTestStack(t, 1, 0)
	if status, resp := st.do(t, "POST", "/v1/incidents", "k-tenant-a",
		`{"id":"inc-race","scenario":"gray-link"}`); status != http.StatusCreated {
		t.Fatalf("create: HTTP %d: %s", status, resp)
	}
	const rounds = 40
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) {
		body := fmt.Sprintf(`{"status":"investigating","severity":"sev%d","note":"n%d"}`, i%4, i)
		if status, resp := st.do(t, "PATCH", "/v1/incidents/inc-race", "k-tenant-b", body); status != http.StatusOK {
			t.Errorf("patch: HTTP %d: %s", status, resp)
		}
	})
	run(func(int) {
		if status, resp := st.do(t, "GET", "/v1/incidents/inc-race", "k-tenant-a", ""); status != http.StatusOK {
			t.Errorf("get: HTTP %d: %s", status, resp)
		}
	})
	run(func(int) {
		if status, resp := st.do(t, "GET", "/v1/incidents", "k-tenant-a", ""); status != http.StatusOK {
			t.Errorf("list: HTTP %d: %s", status, resp)
		}
	})
	wg.Wait()
	_, resp := st.do(t, "GET", "/v1/incidents/inc-race", "k-tenant-a", "")
	var rec Record
	if err := json.Unmarshal([]byte(resp), &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Notes) != rounds {
		t.Fatalf("notes = %d, want %d", len(rec.Notes), rounds)
	}
}
