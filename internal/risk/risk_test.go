package risk

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/scenarios"
)

func TestAssessGoodPlanImproves(t *testing.T) {
	t.Parallel()
	in := (&scenarios.Cascade{Stage: 5}).Build(rand.New(rand.NewSource(1)))
	a := &Assessor{}
	rep := a.AssessPlan(in.World, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.OverrideWAN, Target: "B4", Param: "healthy"},
	}})
	if !rep.Improves {
		t.Fatalf("correct mitigation not recognized as improvement: %s", rep.Narrative)
	}
	if rep.WouldCauseIncident {
		t.Fatal("correct mitigation flagged as incident-causing")
	}
	if rep.Score > 0.1 {
		t.Fatalf("correct mitigation scored %v", rep.Score)
	}
	// Live world untouched.
	if !slices.Contains(in.World.Ctl.FailedWANs(), "B4") {
		t.Fatal("what-if leaked into live world (B4 override applied)")
	}
}

func TestAssessHarmfulPlanFlagged(t *testing.T) {
	t.Parallel()
	// On a healthy world, forcing B4 failed overloads B2: a mitigation
	// that *causes* an incident.
	w := scenarios.StandardWorld()
	a := &Assessor{}
	rep := a.AssessPlan(w, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.OverrideWAN, Target: "B4", Param: "failed"},
	}})
	if !rep.WouldCauseIncident {
		t.Fatalf("harmful plan not flagged: %s", rep.Narrative)
	}
	if rep.Score < 0.25 {
		t.Fatalf("harmful plan scored only %v", rep.Score)
	}
	if rep.Improves {
		t.Fatal("harmful plan marked improving")
	}
	if !strings.Contains(rep.Narrative, "harms") {
		t.Errorf("narrative lacks harm call-out: %s", rep.Narrative)
	}
	// Live world unaffected.
	if w.Recompute().OverallLossRate() > 0.001 {
		t.Fatal("what-if leaked into live world")
	}
}

func TestAssessIsolationBlastRadius(t *testing.T) {
	t.Parallel()
	// Isolating a ToR blackholes its hosts: the what-if engine must see
	// the new unroutable service before the OCE pulls the trigger.
	w := scenarios.StandardWorld()
	a := &Assessor{}
	rep := a.AssessPlan(w, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.IsolateDevice, Target: "us-east-tor-p0-0"},
	}})
	if !rep.WouldCauseIncident {
		t.Fatalf("blackholing isolation not flagged: %s", rep.Narrative)
	}
}

func TestAssessHallucinatedTargetIsMaxRisk(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	a := &Assessor{}
	rep := a.AssessPlan(w, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.IsolateLink, Target: "ghost-link-from-hallucination"},
	}})
	if rep.ExecError == nil || rep.Score != 1 {
		t.Fatalf("unexecutable plan not max risk: %+v", rep)
	}
}

func TestAssessNeutralPlan(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	a := &Assessor{}
	rep := a.AssessPlan(w, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.Escalate, Target: "SWAT"},
	}})
	if rep.WouldCauseIncident || rep.Improves || rep.Score != 0 {
		t.Fatalf("escalation should be neutral: %+v", rep)
	}
	if !strings.Contains(rep.Narrative, "neutral") {
		t.Errorf("narrative: %s", rep.Narrative)
	}
}

func TestAssessRestartClearsWedgeWithoutRecurrenceBlame(t *testing.T) {
	t.Parallel()
	// Restarting wedged devices in the novel-protocol incident: the
	// trigger re-fires in the clone, so the what-if engine should predict
	// recurrence (devices wedged again) — not an improvement.
	in := (&scenarios.NovelProtocol{}).Build(rand.New(rand.NewSource(6)))
	var wedged []string
	for _, nd := range in.World.Net.Nodes() {
		if !nd.Healthy {
			wedged = append(wedged, string(nd.ID))
		}
	}
	if len(wedged) == 0 {
		t.Fatal("no wedged devices in novel-protocol scenario")
	}
	var acts []mitigation.Action
	for _, d := range wedged {
		acts = append(acts, mitigation.Action{Kind: mitigation.RestartDevice, Target: d})
	}
	rep := (&Assessor{}).AssessPlan(in.World, mitigation.Plan{Actions: acts})
	// Either it re-wedges (incident) or fails to improve; both are
	// signals the OCE needs.
	if rep.Improves && !rep.WouldCauseIncident {
		t.Fatalf("restart-only predicted to fully fix the Tokyo incident: %+v", rep.Narrative)
	}
}

func TestCombinedBlending(t *testing.T) {
	t.Parallel()
	quant := &Report{Score: 0.1}
	c := Combined{Qualitative: llm.RiskOpinion{Level: "high", Score: 0.7, Reason: "touches WAN controller"}, Quantitative: quant}
	want := 0.4*0.7 + 0.6*0.1
	if got := c.Score(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("blend = %v, want %v", got, want)
	}
	if c.Acceptable(0.2) {
		t.Fatal("over-budget plan accepted")
	}
	if !c.Acceptable(0.5) {
		t.Fatal("within-budget plan rejected")
	}
	// Single-view cases pass through unweighted.
	if (Combined{Qualitative: llm.RiskOpinion{Score: 0.7, Reason: "x"}}).Score() != 0.7 {
		t.Fatal("qual-only blend wrong")
	}
	if (Combined{Quantitative: &Report{Score: 0.3}}).Score() != 0.3 {
		t.Fatal("quant-only blend wrong")
	}
	c.Quantitative.WouldCauseIncident = true
	if c.Acceptable(0.9) {
		t.Fatal("incident-causing plan accepted regardless of budget")
	}
	if c.Narrative() == "" {
		t.Fatal("empty narrative")
	}
}

func TestCombinedCatchesHallucinatedUnderestimate(t *testing.T) {
	t.Parallel()
	// The LLM understates risk (hallucination); the quantitative view
	// must dominate. This is the paper's argument for merging views.
	w := scenarios.StandardWorld()
	quant := (&Assessor{}).AssessPlan(w, mitigation.Plan{Actions: []mitigation.Action{
		{Kind: mitigation.OverrideWAN, Target: "B4", Param: "failed"},
	}})
	c := Combined{Qualitative: llm.RiskOpinion{Level: "low", Score: 0.05, Reason: "seems safe"}, Quantitative: quant}
	if c.Acceptable(0.5) {
		t.Fatal("quantitative evidence of harm ignored")
	}
	if !quant.WouldCauseIncident {
		t.Fatal("what-if engine missed the harm")
	}
	_ = kb.Default()
	_ = netsim.SevInfo
}
