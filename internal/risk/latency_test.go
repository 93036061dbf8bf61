package risk

import (
	"math/rand"
	"testing"

	"repro/internal/mitigation"
	"repro/internal/scenarios"
)

// TestWhatIfPredictsResidualLatency: on the maintenance-overlap incident
// the latency stays broken unless the maintenance is rolled back; the
// what-if engine must expose that so the helper skips cosmetic plans.
func TestWhatIfPredictsResidualLatency(t *testing.T) {
	t.Parallel()
	in := (&scenarios.MaintenanceOverlap{}).Build(rand.New(rand.NewSource(1)))
	a := &Assessor{}

	// Cosmetic plan: isolating one of the already-down links changes
	// nothing; the predicted latency ratio stays far above baseline.
	var downLink string
	for _, l := range in.World.Net.Links() {
		if l.Down {
			downLink = string(l.ID)
			break
		}
	}
	if downLink == "" {
		t.Fatal("no down link in maintenance scenario")
	}
	cosmetic := a.AssessPlan(in.World, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.IsolateLink, Target: downLink},
	}})
	if cosmetic.WorstLatencyRatio <= 1.5 {
		t.Fatalf("cosmetic plan predicted latency ratio %v, want > 1.5", cosmetic.WorstLatencyRatio)
	}

	// The real fix: rolling back the maintenance restores latency.
	fix := a.AssessPlan(in.World, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.RollbackChange, Target: in.Incident.Truth.RootFixChange},
	}})
	if fix.WorstLatencyRatio > 1.1 {
		t.Fatalf("rollback predicted latency ratio %v, want ~1.0", fix.WorstLatencyRatio)
	}
}

// TestWhatIfLatencyRatioOnHealthyWorld: with no incident the predicted
// ratio for a harmless plan is ~1.
func TestWhatIfLatencyRatioOnHealthyWorld(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	rep := (&Assessor{}).AssessPlan(w, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.Escalate, Target: "SWAT"},
	}})
	if rep.WorstLatencyRatio > 1.05 || rep.WorstLatencyRatio < 0.5 {
		t.Fatalf("healthy-world latency ratio %v", rep.WorstLatencyRatio)
	}
}
