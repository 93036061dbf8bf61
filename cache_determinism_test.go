package aiops

// Cache neutrality: the what-if fast-path caches (route DAGs, embedding
// memo) are pure speed optimizations — every rendered byte and every
// exported event and metric must be identical with caches on or off,
// serial or parallel.
//
// These tests toggle process-wide cache switches, so they must NOT call
// t.Parallel(): Go runs them to completion during the sequential phase,
// before any paused parallel test resumes, and they restore the default
// (caches on) before returning.

import (
	"bytes"
	"testing"

	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/netsim"
)

func setCaches(on bool) {
	netsim.SetRouteCacheEnabled(on)
	embed.SetEmbedCacheEnabled(on)
}

// TestCachesAreOutputNeutral renders the same A/B trial into a log sink
// in all four (caches, workers) corners and requires the report, the
// -trace-out event log and the -metrics-out text to be byte-identical
// everywhere.
func TestCachesAreOutputNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("full A/B renders are slow")
	}
	defer setCaches(true)
	type output struct{ report, events, metrics string }
	render := func(on bool, workers int) output {
		setCaches(on)
		sink := NewSink()
		sys := New(WithSeed(17), WithWorkers(workers), WithObservability(sink))
		sys.GenerateHistory(24, 17)
		out := output{report: eval.RenderABReport(sys.ABTest(16, 17))}
		var ev, m bytes.Buffer
		if err := sink.WriteEvents(&ev); err != nil {
			t.Fatal(err)
		}
		if err := sink.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		out.events, out.metrics = ev.String(), m.String()
		return out
	}
	want := render(true, 1)
	if want.events == "" || want.metrics == "" {
		t.Fatal("sink captured nothing")
	}
	for _, c := range []struct {
		on      bool
		workers int
	}{{false, 1}, {true, 8}, {false, 8}} {
		got := render(c.on, c.workers)
		if got.report != want.report {
			t.Errorf("caches=%v workers=%d: rendered report differs from caches on at one worker", c.on, c.workers)
		}
		if got.events != want.events {
			t.Errorf("caches=%v workers=%d: event log differs from caches on at one worker", c.on, c.workers)
		}
		if got.metrics != want.metrics {
			t.Errorf("caches=%v workers=%d: metrics dump differs from caches on at one worker", c.on, c.workers)
		}
	}
}

// TestObservabilityWorkerIndependenceCachesOff repeats the export
// determinism contract with the caches disabled on a second seed: the
// event log and the metrics dump must be byte-identical at every worker
// count and carry no aiops_cache_* series.
func TestObservabilityWorkerIndependenceCachesOff(t *testing.T) {
	if testing.Short() {
		t.Skip("full export captures are slow")
	}
	setCaches(false)
	defer setCaches(true)
	capture := func(workers int) (events, metrics string) {
		sink := NewSink()
		sys := New(WithSeed(13), WithWorkers(workers), WithObservability(sink))
		sys.GenerateHistory(20, 13)
		sys.ABTest(12, 13)
		var ev, m bytes.Buffer
		if err := sink.WriteEvents(&ev); err != nil {
			t.Fatal(err)
		}
		if err := sink.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		return ev.String(), m.String()
	}
	ev1, m1 := capture(1)
	ev8, m8 := capture(8)
	if ev1 == "" || m1 == "" {
		t.Fatal("sink captured nothing")
	}
	if ev1 != ev8 {
		t.Error("caches-off event log differs between workers=1 and workers=8")
	}
	if m1 != m8 {
		t.Error("caches-off metrics dump differs between workers=1 and workers=8")
	}
	if bytes.Contains([]byte(m1), []byte("aiops_cache_hits_total")) {
		t.Error("caches-off metrics should carry no aiops_cache_* series")
	}
}
