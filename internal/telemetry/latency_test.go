package telemetry_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

func TestLatencyAlertFiresOnMaintenanceOverlap(t *testing.T) {
	t.Parallel()
	in := (&scenarios.MaintenanceOverlap{}).Build(rand.New(rand.NewSource(1)))
	alerts := telemetry.NewAlertEngine(in.World).Evaluate()
	var haveLatency, haveLoss bool
	for _, a := range alerts {
		switch a.Rule {
		case "latency":
			haveLatency = true
			if a.Severity != netsim.SevError {
				t.Errorf("latency alert severity %v", a.Severity)
			}
		case "service-loss":
			haveLoss = true
		}
	}
	if !haveLatency {
		t.Fatalf("no latency alert: %v", alerts)
	}
	if haveLoss {
		t.Errorf("maintenance overlap should be loss-free: %v", alerts)
	}
}

func TestLatencyAlertQuietWhenBaselinesMissing(t *testing.T) {
	t.Parallel()
	// Worlds without snapshotted baselines (e.g. bare test fixtures)
	// must not fire spurious latency alerts.
	w := scenarios.StandardWorld()
	w.LatencyBaseline = map[string]float64{}
	if alerts := telemetry.NewAlertEngine(w).Evaluate(); len(alerts) != 0 {
		t.Fatalf("alerts without baselines: %v", alerts)
	}
}

func TestLatencyBaselineSurvivesClone(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	if len(w.LatencyBaseline) == 0 {
		t.Fatal("standard world has no latency baselines")
	}
	c := w.Clone()
	if len(c.LatencyBaseline) != len(w.LatencyBaseline) {
		t.Fatal("clone dropped latency baselines")
	}
	c.LatencyBaseline["bulk-transfer"] = 1
	if w.LatencyBaseline["bulk-transfer"] == 1 {
		t.Fatal("clone aliases baseline map")
	}
}

func TestHealthyWorldWithinLatencyBaseline(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	rep := w.Report()
	for svc, ss := range rep.ServiceStats {
		base := w.LatencyBaseline[svc]
		if base == 0 {
			continue
		}
		if ss.MaxLatency > base*1.01 {
			t.Errorf("service %s latency %v above its own baseline %v", svc, ss.MaxLatency, base)
		}
	}
}

func TestRecorderSamplesAndTrends(t *testing.T) {
	t.Parallel()
	in := (&scenarios.GrayLinkFlapping{}).Build(rand.New(rand.NewSource(5)))
	rec := telemetry.RecorderOf(in.World)
	if rec == nil {
		t.Fatal("standard world has no recorder attached")
	}
	// Walk time in small steps so the flap produces an oscillating series.
	for i := 0; i < 60; i++ {
		in.World.Clock.Advance(1 * time.Minute)
		in.World.Invalidate()
	}
	trend, crossings := rec.Classify("svc:web:loss", 60*time.Minute, 0.01)
	if trend != telemetry.TrendIntermittent {
		t.Fatalf("flapping web loss classified as %s (%d crossings)", trend, crossings)
	}
	if crossings < 3 {
		t.Fatalf("crossings = %d", crossings)
	}
}

func TestRecorderTrendFlatOnHealthyWorld(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	rec := telemetry.RecorderOf(w)
	for i := 0; i < 30; i++ {
		w.Clock.Advance(2 * time.Minute)
	}
	trend, crossings := rec.Classify("overall:loss", 60*time.Minute, 0.01)
	if trend != telemetry.TrendFlat || crossings != 0 {
		t.Fatalf("healthy world trend = %s crossings=%d", trend, crossings)
	}
	if len(rec.Keys()) == 0 || rec.String() == "" {
		t.Fatal("recorder metadata empty")
	}
}

func TestRecorderRangeWindow(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	rec := telemetry.RecorderOf(w)
	for i := 0; i < 10; i++ {
		w.Clock.Advance(2 * time.Minute)
	}
	all := rec.Range("overall:loss", 0, w.Clock.Now())
	half := rec.Range("overall:loss", w.Clock.Now()/2, w.Clock.Now())
	if len(all) == 0 || len(half) >= len(all) {
		t.Fatalf("range windows wrong: all=%d half=%d", len(all), len(half))
	}
}
