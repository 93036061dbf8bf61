package scenarios

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/kb"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

func TestStandardWorldHealthy(t *testing.T) {
	t.Parallel()
	w := StandardWorld()
	rep := w.Recompute()
	if loss := rep.OverallLossRate(); loss > 0.001 {
		t.Fatalf("standard world loss = %v", loss)
	}
	for _, svc := range []string{"bulk-transfer", "web", "storage", "directconnect"} {
		ss := rep.ServiceStats[svc]
		if ss == nil {
			t.Fatalf("service %s missing", svc)
		}
		if ss.LossRate > 0.001 {
			t.Errorf("service %s loss = %v", svc, ss.LossRate)
		}
	}
	if alerts := telemetry.NewAlertEngine(w).Evaluate(); len(alerts) != 0 {
		t.Fatalf("healthy standard world fires alerts: %v", alerts)
	}
}

// applyGroundTruthMitigation executes the first acceptable mitigation set
// with placeholder-free targets and returns the plan.
func applyGroundTruthMitigation(t *testing.T, in *Instance) mitigation.Plan {
	t.Helper()
	need := in.Incident.Truth.RequiredMitigations[0]
	plan := mitigation.Plan{Actions: append([]mitigation.Action(nil), need...)}
	// Fill params required for execution but optional for matching.
	for i, a := range plan.Actions {
		if a.Kind == mitigation.RateLimitService && a.Param == "" {
			plan.Actions[i].Param = "0.5"
		}
	}
	ex := &mitigation.Executor{World: in.World, Actor: "test"}
	if err := ex.ExecutePlan(plan); err != nil {
		t.Fatalf("executing ground-truth mitigation: %v", err)
	}
	// Scenario-specific cleanup actions a real operator would chain.
	if in.Scenario.Name() == "novel-protocol" {
		for _, nd := range in.World.Net.Nodes() {
			if !nd.Healthy {
				if err := ex.Execute(mitigation.Action{Kind: mitigation.RestartDevice, Target: string(nd.ID)}); err != nil {
					t.Fatal(err)
				}
				plan.Actions = append(plan.Actions, mitigation.Action{Kind: mitigation.RestartDevice, Target: string(nd.ID)})
			}
		}
	}
	return plan
}

// TestEveryScenarioDetectableAndMitigable is the library's contract: each
// scenario must (a) produce a detectable incident (symptoms or alerts),
// (b) fail verification before mitigation, unless it is a false alarm,
// and (c) pass Succeeded after its own ground-truth mitigation executes.
func TestEveryScenarioDetectableAndMitigable(t *testing.T) {
	t.Parallel()
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				in := sc.Build(rng)
				if in.Incident.Truth == nil {
					t.Fatal("no ground truth")
				}
				if len(in.Incident.Symptoms) == 0 {
					t.Fatalf("seed %d: incident has no symptoms (summary %q)", seed, in.Incident.Summary)
				}
				if in.Incident.Truth.RootCause != sc.RootCauseClass() {
					t.Fatalf("root cause %s != class %s", in.Incident.Truth.RootCause, sc.RootCauseClass())
				}
				v := &mitigation.Verifier{World: in.World}
				mitigatedBefore := v.Mitigated()
				if sc.Name() == "false-alarm" {
					if !mitigatedBefore {
						t.Fatalf("seed %d: false alarm world should be clean", seed)
					}
				} else if mitigatedBefore {
					t.Fatalf("seed %d: world verifies clean before mitigation", seed)
				}
				if in.Succeeded(mitigation.Plan{}) {
					t.Fatalf("seed %d: empty plan counted as success", seed)
				}
				plan := applyGroundTruthMitigation(t, in)
				if !in.Succeeded(plan) {
					rep := in.World.Recompute()
					t.Fatalf("seed %d: ground-truth mitigation did not succeed (loss=%v)", seed, rep.OverallLossRate())
				}
			}
		})
	}
}

func TestCascadeDepthsOrdered(t *testing.T) {
	t.Parallel()
	depths := map[int]int{}
	for _, stage := range []int{3, 4, 5} {
		in := (&Cascade{Stage: stage}).Build(rand.New(rand.NewSource(1)))
		depths[stage] = in.Incident.Truth.ChainDepth()
	}
	if !(depths[3] < depths[4] && depths[4] < depths[5]) {
		t.Fatalf("cascade depths not increasing: %v", depths)
	}
	if depths[5] != 5 {
		t.Errorf("full Casc-1 depth = %d, want 5", depths[5])
	}
}

// knownToV1 reports whether the version-1 KB has a rule for every
// cause -> effect step of a causal chain. A novel incident's chain
// needs knowledge that only a later KB version adds.
func knownToV1(chain []string) bool {
	v1 := kb.Default()
	for i := 0; i+1 < len(chain); i++ {
		if !slices.ContainsFunc(v1.CausesOf(chain[i+1]), func(r kb.Rule) bool { return r.Cause == chain[i] }) {
			return false
		}
	}
	return true
}

func TestNovelProtocolMarkedNovel(t *testing.T) {
	t.Parallel()
	in := (&NovelProtocol{}).Build(rand.New(rand.NewSource(2)))
	if knownToV1(in.Incident.Truth.CausalChain) {
		t.Fatal("novel-protocol's causal chain is known to the version-1 KB")
	}
	if !slices.ContainsFunc(in.World.Changes.All(), func(c netsim.ChangeRecord) bool { return c.Kind == netsim.ChangeProtocolRollout }) {
		t.Fatal("rollout change not recorded")
	}
	// Restart-only mitigation must cause recurrence (the Tokyo trap).
	ex := &mitigation.Executor{World: in.World, Actor: "test"}
	for _, nd := range in.World.Net.Nodes() {
		if !nd.Healthy {
			if err := ex.Execute(mitigation.Action{Kind: mitigation.RestartDevice, Target: string(nd.ID)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	in.World.Recompute()
	wedged := 0
	for _, nd := range in.World.Net.Nodes() {
		if !nd.Healthy {
			wedged++
		}
	}
	if wedged == 0 {
		t.Fatal("restart-only mitigation should re-wedge devices")
	}
}

func TestFalseAlarmHasNoRealLoss(t *testing.T) {
	t.Parallel()
	in := (&FalseAlarm{}).Build(rand.New(rand.NewSource(3)))
	if in.World.Report().OverallLossRate() > 0.001 {
		t.Fatal("false alarm has real loss")
	}
	pm := telemetry.NewPingMesh(in.World)
	if telemetry.MaxLoss(pm.Query()) < 0.05 {
		t.Fatal("broken pingmesh not fabricating loss")
	}
	if in.Incident.Symptoms[0] != kb.CPacketLoss {
		t.Fatalf("symptoms = %v", in.Incident.Symptoms)
	}
}

func TestCascadeStage5RollbackResolves(t *testing.T) {
	t.Parallel()
	in := (&Cascade{Stage: 5}).Build(rand.New(rand.NewSource(4)))
	var rollback mitigation.Action
	for _, set := range in.Incident.Truth.RequiredMitigations {
		if len(set) == 1 && set[0].Kind == mitigation.RollbackChange {
			rollback = set[0]
		}
	}
	if rollback.Target == "" {
		t.Fatal("no change rollback among the required mitigations")
	}
	ex := &mitigation.Executor{World: in.World, Actor: "test"}
	if err := ex.Execute(rollback); err != nil {
		t.Fatal(err)
	}
	if !in.Succeeded(mitigation.Plan{Actions: []mitigation.Action{rollback}}) {
		t.Fatal("rollback did not resolve stage-5 cascade")
	}
}

func TestByNameAndRegistries(t *testing.T) {
	t.Parallel()
	if ByName("cascade-5") == nil || ByName("nope") != nil {
		t.Fatal("ByName lookup broken")
	}
	if len(All()) < 8 {
		t.Fatalf("library has %d classes", len(All()))
	}
	for _, s := range Routine() {
		in := s.Build(rand.New(rand.NewSource(5)))
		if !knownToV1(in.Incident.Truth.CausalChain) {
			t.Errorf("routine scenario %s needs knowledge the version-1 KB lacks", s.Name())
		}
	}
}

func TestIncidentIDsUnique(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20; i++ {
		in := (&DeviceFailure{}).Build(rng)
		if seen[in.Incident.ID] {
			t.Fatalf("duplicate incident ID %s", in.Incident.ID)
		}
		seen[in.Incident.ID] = true
	}
}

func TestGroundTruthChainEndsAtSymptom(t *testing.T) {
	t.Parallel()
	for _, sc := range All() {
		in := sc.Build(rand.New(rand.NewSource(7)))
		chain := in.Incident.Truth.CausalChain
		if len(chain) < 2 {
			t.Errorf("%s: chain too short: %v", sc.Name(), chain)
			continue
		}
		last := chain[len(chain)-1]
		if last != kb.CPacketLoss && last != kb.CLatencySpike {
			t.Errorf("%s: chain does not end at an observable symptom: %v", sc.Name(), chain)
		}
	}
	_ = netsim.SevInfo
}

func TestFlappingCorruptionTogglesWithClock(t *testing.T) {
	t.Parallel()
	in := (&GrayLinkFlapping{}).Build(rand.New(rand.NewSource(1)))
	var lid netsim.LinkID
	for _, l := range in.World.Net.Links() {
		if l.CorruptRate > 0 {
			lid = l.ID
		}
	}
	if lid == "" {
		t.Fatal("no corrupting link at detection time")
	}
	seenOn, seenOff := false, false
	for i := 0; i < 30; i++ {
		in.World.Clock.Advance(1 * time.Minute)
		if in.World.Net.Link(lid).CorruptRate > 0 {
			seenOn = true
		} else {
			seenOff = true
		}
	}
	if !seenOn || !seenOff {
		t.Fatalf("flap did not toggle: on=%v off=%v", seenOn, seenOff)
	}
	// Isolating the link ends the impact permanently even while flapping.
	ex := &mitigation.Executor{World: in.World, Actor: "test"}
	if err := ex.Execute(mitigation.Action{Kind: mitigation.IsolateLink, Target: string(lid)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		in.World.Clock.Advance(1 * time.Minute)
		v := &mitigation.Verifier{World: in.World}
		if !v.Mitigated() {
			t.Fatal("isolated flapping link still causing impact")
		}
	}
}
