package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
)

// toyParams shrinks every workload to about a second.
func toyParams() params {
	return params{
		seconds: time.Second, setupReps: 1,
		warmup: 10, ingestRate: 50,
		preload: 30, resolve: 10, mixedRate: 200,
		bootIncidents: 20, bootResolved: 10,
		batch: 16, history: 20,
		fleetArrivals: 1000, fleetWarmup: 200, fleetRegions: 16,
		appends: 5,
	}
}

func TestTailReportsP99OnlyWithTenSamplesBeyond(t *testing.T) {
	seq := func(n int) dist {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return newDist(xs)
	}
	for _, tc := range []struct {
		n     int
		value float64
		name  string
	}{
		{1000, 990, "p99"}, // exactly 10 samples above the 990th
		{999, 980, "p98"},  // p99 would leave 9
		{100, 90, "p90"},
		{40, 30, "p75"},
		{5, 3, "p50"}, // nothing supported: the median, named as such
	} {
		d := seq(tc.n)
		if got := d.tail(); got != tc.value {
			t.Errorf("n=%d: tail = %g, want %g", tc.n, got, tc.value)
		}
		if got := d.tailName(); got != tc.name {
			t.Errorf("n=%d: tail named %s, want %s", tc.n, got, tc.name)
		}
		if p := tailPct(tc.n); beyond(tc.n, p) < minBeyond && p != 50 {
			t.Errorf("n=%d: reported p%g with %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL, 0, nil)
	defer closeClients([]*client{c})

	// 100 requests/s on one connection: request 4 is due at 40ms and
	// holds the connection until about 240ms, so requests 5..23, due
	// every 10ms from 50ms, all go out after it.
	ss := openLoop([]*client{c}, 40, 100, func(c *client, i int) error {
		_, _, err := c.do(http.MethodGet, "/", "get", nil)
		return err
	}, nil)
	if n := failures(ss); n > 0 {
		t.Fatalf("%d requests failed", n)
	}
	for i := 5; i <= 14; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		if want := 40*time.Millisecond + stall - due; ss[i].lat < want {
			t.Errorf("request %d (due %v): latency %v, want at least %v from its due time", i, due, ss[i].lat, want)
		}
	}
	for i := 5; i <= 14; i++ {
		if !ss[i].queued || ss[i].late < stall/2 {
			t.Errorf("request %d: queued=%v, sent %v late; it was due while the stall held the connection", i, ss[i].queued, ss[i].late)
		}
	}

	// The stall is the server's queue, not the generator's lag: the
	// generator stays valid, and its own lag is the timer's, above 0.
	e, res := &env{chk: &checker{}}, newResult()
	checkGenerator(e, res, ss)
	if e.chk.n > 0 {
		t.Errorf("the stall invalidated the generator: %v", e.chk.msgs)
	}
	if gen := res.checks["gen_late_ms"].(float64); !(gen > 0 && gen < maxGenLateMS) {
		t.Errorf("gen_late_ms = %g, want the timer's own small lag", gen)
	}
	if q := res.checks["queued_share"].(float64); q < 0.2 {
		t.Errorf("queued_share = %g: the requests due during the stall were not queued", q)
	}
}

func TestGeneratorLagInvalidatesTheRun(t *testing.T) {
	ss := make([]opSample, 100)
	for i := range ss {
		ss[i].late = time.Duration(i%10) * time.Millisecond // p95: 9 ms
	}
	e := &env{chk: &checker{}}
	checkGenerator(e, newResult(), ss)
	if e.chk.n != 1 {
		t.Errorf("a generator 9 ms late at p95 passed: %d violations", e.chk.n)
	}
	for i := range ss {
		ss[i].queued = ss[i].late > time.Millisecond // the lag was the system's queue
	}
	e = &env{chk: &checker{}}
	checkGenerator(e, newResult(), ss)
	if e.chk.n != 0 {
		t.Errorf("queued operations counted as the generator's lag: %v", e.chk.msgs)
	}
}

func TestTapesAreAPureFunctionOfTheSeed(t *testing.T) {
	tapes := func(seed int64) []any {
		specs := make([]sessionSpec, 50)
		for i := range specs {
			specs[i] = sessionAt(seed, i)
		}
		return []any{ingestTape(seed, 300), newMixedTape(seed, 60, 15, 400), specs}
	}
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := tapes(11), tapes(11), tapes(12)
	for i := range a {
		if !slices.Equal(enc(a[i]), enc(b[i])) {
			t.Errorf("tape %d: the same seed gave different bytes", i)
		}
		if slices.Equal(enc(a[i]), enc(c[i])) {
			t.Errorf("tape %d: seeds 11 and 12 gave the same bytes", i)
		}
	}
}

func TestTracingKeepsTheProgramOnItsUntracedPath(t *testing.T) {
	// The decorators keep the optional interfaces the gateway and the
	// fleet type-assert for, and add none.
	tr := newTracer()
	if _, ok := tr.wrapRunner(newAssistedRunner()).(harness.ObservedRunner); !ok {
		t.Error("a wrapped ObservedRunner lost RunObserved")
	}
	if _, ok := tr.wrapRunner(syntheticRunner{}).(harness.ObservedRunner); ok {
		t.Error("a wrapped plain Runner gained RunObserved")
	}
	var sched fleet.Scheduler = &tracedScheduler{ShardedScheduler: fleet.NewSharded(fleet.ShardedLiveConfig{}), t: tr}
	if _, ok := sched.(interface{ DrainSharded() *fleet.ShardedReport }); !ok {
		t.Error("the traced scheduler lost DrainSharded")
	}

	// Untraced, the server serves the gateway's own handler.
	s, err := serve(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.srv.Handler != s.gw.Handler() {
		t.Error("untraced run installed a handler decorator")
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	// A traced ingest run serves exactly the untraced run's outputs.
	run := func(trace bool) *report {
		rep, err := execute("ingest", 5, toyParams(), trace, t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Fatalf("trace=%v: %v", trace, rep.Violations)
		}
		return rep
	}
	plain, traced := run(false), run(true)
	if plain.Checks["output_digest"] != traced.Checks["output_digest"] {
		t.Errorf("output digest %v untraced, %v traced", plain.Checks["output_digest"], traced.Checks["output_digest"])
	}
	if !reflect.DeepEqual(plain.res.lakeEvents, traced.res.lakeEvents) {
		t.Errorf("lake entry event counts differ:\n untraced %v\n traced   %v", plain.res.lakeEvents, traced.res.lakeEvents)
	}
	if !reflect.DeepEqual(plain.res.det, traced.res.det) {
		t.Errorf("/metrics counters differ:\n untraced %v\n traced   %v", plain.res.det, traced.res.det)
	}
	if plain.res.det["aiops_sessions_total"] == 0 || len(plain.res.lakeEvents) == 0 {
		t.Errorf("nothing compared: counters %v, %d lake entries", plain.res.det, len(plain.res.lakeEvents))
	}
	if traced.res.layers["trace.spans"] == 0 || traced.res.layers["gateway.create_p50_ms"] == 0 {
		t.Errorf("traced run recorded no spans: %v", traced.res.layers)
	}
}

func TestEveryWorkloadRunsCorrectlyAtToySize(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			rep, err := execute(name, 3, toyParams(), false, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed > 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Violations)
			}
			for _, d := range endToEnd {
				if v := rep.Metrics[d.Name]; !(v > 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
		})
	}
}

func TestCPUSharesChargeTheProfiledCode(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 || shares["cpu.bench"] < 0.5 {
		t.Errorf("shares sum to %g, cpu.bench %g (x=%g): %v", sum, shares["cpu.bench"], x, shares)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := sortedKeys(workloads); !slices.Equal(slices.Sorted(slices.Values(names)), want) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, want)
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end\n json  %v\n bench %v", e2e, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer\n json  %v\n bench %v", b.PerLayer, perLayer)
	}
	if fmt.Sprint(b.Paths) != "[bench]" || b.RunSeconds < 1 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}
