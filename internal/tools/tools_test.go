package tools

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/kb"
	"repro/internal/netsim"
	"repro/internal/scenarios"
)

func hasFinding(res Result, substr string) bool {
	for _, f := range res.Findings {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

func build(t *testing.T, sc scenarios.Scenario, seed int64) *scenarios.Instance {
	t.Helper()
	return sc.Build(rand.New(rand.NewSource(seed)))
}

func TestRegistryOwnership(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	if err := r.Register("monitoring", NewPingMeshTool()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("monitoring", NewPingMeshTool()); err != nil {
		t.Fatal("same-team re-register should succeed:", err)
	}
	if err := r.Register("wan", NewPingMeshTool()); err == nil {
		t.Fatal("cross-team override should fail")
	}
	if _, ok := r.Get(kb.ToolPingMesh); !ok {
		t.Fatal("registered tool not found")
	}
	if r.Owner(kb.ToolPingMesh) != "monitoring" {
		t.Fatal("owner wrong")
	}
	if n := r.RemoveTeam("monitoring"); n != 1 {
		t.Fatalf("RemoveTeam removed %d", n)
	}
	if len(r.Names()) != 0 {
		t.Fatal("registry not empty after team removal")
	}
}

func TestDefaultRegistryComplete(t *testing.T) {
	t.Parallel()
	r := NewDefaultRegistry(nil, nil, "q", "web")
	want := []string{
		kb.ToolPingMesh, kb.ToolLinkUtil, kb.ToolDeviceHealth, kb.ToolCounters,
		kb.ToolSyslog, kb.ToolControllerState, kb.ToolPrefixTable,
		kb.ToolRecentChanges, kb.ToolMonitorCheck, kb.ToolSimilarIncidents, kb.ToolAskCustomer,
	}
	for _, name := range want {
		tool, ok := r.Get(name)
		if !ok {
			t.Errorf("tool %s missing", name)
			continue
		}
		if tool.Latency() <= 0 {
			t.Errorf("tool %s has no latency", name)
		}
		if tool.Description() == "" {
			t.Errorf("tool %s has no description", name)
		}
		if tool.Risk() != RiskReadOnly {
			t.Errorf("diagnostic tool %s not read-only", name)
		}
	}
}

func TestPingMeshToolDetectsCascade(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.Cascade{Stage: 5}, 1)
	res, err := NewPingMeshTool().Invoke(in.World, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, kb.CPacketLoss+"=true") {
		t.Fatalf("findings = %v", res.Findings)
	}
	// Healthy world says false.
	w := scenarios.StandardWorld()
	res, _ = NewPingMeshTool().Invoke(w, nil)
	if !hasFinding(res, kb.CPacketLoss+"=false") {
		t.Fatalf("healthy findings = %v", res.Findings)
	}
}

func TestLinkUtilToolFindsOverloadAndDominantService(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.Congestion{}, 2)
	res, err := NewLinkUtilTool().Invoke(in.World, map[string]string{"top": "5"})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, kb.CLinkOverload+"=true") {
		t.Fatalf("findings = %v", res.Findings)
	}
	if res.Bindings[kb.PhService] != "bulk-transfer" {
		t.Errorf("dominant service binding = %q", res.Bindings[kb.PhService])
	}
	if res.Bindings[kb.PhLink] == "" {
		t.Error("no link binding")
	}
}

func TestDeviceHealthToolBindsDownDevices(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.DeviceFailure{}, 3)
	res, err := NewDeviceHealthTool().Invoke(in.World, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, kb.CDeviceDown+"=true") {
		t.Fatalf("findings = %v", res.Findings)
	}
	if res.Bindings[kb.PhDevice] == "" {
		t.Error("no device binding")
	}
}

func TestCountersToolSeparatesGrayFromCongestion(t *testing.T) {
	t.Parallel()
	gray := build(t, &scenarios.GrayLink{}, 4)
	res, _ := NewCountersTool().Invoke(gray.World, nil)
	if !hasFinding(res, kb.CLinkCorruption+"=true") {
		t.Fatalf("gray link not flagged: %v", res.Findings)
	}
	if res.Bindings[kb.PhLink] == "" {
		t.Error("no gray link binding")
	}

	cong := build(t, &scenarios.Congestion{}, 4)
	res, _ = NewCountersTool().Invoke(cong.World, nil)
	if hasFinding(res, kb.CLinkCorruption+"=true") {
		t.Fatalf("congestion misflagged as corruption: %v", res.Findings)
	}
}

func TestSyslogToolFindsProtocolCrash(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.NovelProtocol{}, 5)
	res, err := NewSyslogTool().Invoke(in.World, map[string]string{"sincemin": "120"})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, kb.CDeviceOSCrash+"=true") {
		t.Fatalf("crash not found: %v", res.Findings)
	}
	if !hasFinding(res, kb.CProtocolBug+"=true") {
		t.Fatalf("protocol bug not inferred: %v", res.Findings)
	}
	if res.Bindings[kb.PhProtocol] != kb.FastpathProtocol {
		t.Errorf("protocol binding = %q", res.Bindings[kb.PhProtocol])
	}
	if res.Bindings[kb.PhDevice] == "" {
		t.Error("no wedged-device binding")
	}
}

func TestControllerAndPrefixToolsOnCascade(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.Cascade{Stage: 5}, 6)
	res, _ := NewControllerStateTool().Invoke(in.World, nil)
	if !hasFinding(res, kb.CWANFailover+"=true") || res.Bindings[kb.PhWAN] != "B4" {
		t.Fatalf("controller state: %v %v", res.Findings, res.Bindings)
	}
	res, _ = NewPrefixTableTool().Invoke(in.World, nil)
	if !hasFinding(res, kb.CPrefixConflict+"=true") {
		t.Fatalf("prefix conflict missed: %v", res.Findings)
	}

	healthy := scenarios.StandardWorld()
	res, _ = NewControllerStateTool().Invoke(healthy, nil)
	if !hasFinding(res, kb.CWANFailover+"=false") {
		t.Fatalf("healthy controller: %v", res.Findings)
	}
}

func TestRecentChangesToolCrossChecks(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.Cascade{Stage: 5}, 7)
	res, err := NewRecentChangesTool().Invoke(in.World, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, kb.CConfigPush+"=true") {
		t.Fatalf("config push missed: %v", res.Findings)
	}
	if !hasFinding(res, kb.CConfigInconsistency+"=true") {
		t.Fatalf("inconsistency cross-check failed: %v", res.Findings)
	}
	if res.Bindings[kb.PhChange] == "" {
		t.Error("no change binding")
	}

	// A push with no live inconsistency must NOT be flagged.
	w := scenarios.StandardWorld()
	w.Changes.Add(netsim.ChangeRecord{Team: "x", Kind: netsim.ChangeConfigPush, Description: "benign"})
	res, _ = NewRecentChangesTool().Invoke(w, nil)
	if hasFinding(res, kb.CConfigInconsistency+"=true") {
		t.Fatalf("benign push flagged: %v", res.Findings)
	}
}

func TestRecentChangesToolSeesRollout(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.NovelProtocol{}, 8)
	res, _ := NewRecentChangesTool().Invoke(in.World, map[string]string{"sincemin": "40000"})
	if !hasFinding(res, kb.CProtocolRollout+"=true") {
		t.Fatalf("rollout missed: %v", res.Findings)
	}
	if res.Bindings[kb.PhProtocol] != kb.FastpathProtocol {
		t.Errorf("protocol binding = %q", res.Bindings[kb.PhProtocol])
	}
}

func TestMonitorCrossCheckTool(t *testing.T) {
	t.Parallel()
	fa := build(t, &scenarios.FalseAlarm{}, 9)
	res, _ := NewMonitorCrossCheckTool().Invoke(fa.World, map[string]string{"monitor": "pingmesh"})
	if !hasFinding(res, kb.CMonitorFalseAlarm+"=true") {
		t.Fatalf("false alarm missed: %v", res.Findings)
	}
	if res.Bindings[kb.PhMonitor] != "pingmesh" {
		t.Error("no monitor binding")
	}

	// Real loss: monitors agree, no false alarm.
	real := build(t, &scenarios.Cascade{Stage: 5}, 9)
	res, _ = NewMonitorCrossCheckTool().Invoke(real.World, nil)
	if hasFinding(res, kb.CMonitorFalseAlarm+"=true") {
		t.Fatalf("real incident misflagged: %v", res.Findings)
	}
}

func TestSimilarIncidentsTool(t *testing.T) {
	t.Parallel()
	hist := kb.NewHistory()
	hist.Add(kb.IncidentRecord{ID: "h1", Title: "packet loss web us-east", RootCause: kb.CLinkCorruption, TTMMinutes: 40})
	hist.Add(kb.IncidentRecord{ID: "h2", Title: "bulk congestion links hot", RootCause: kb.CTrafficSurge, TTMMinutes: 25})
	store := embed.NewStore(embed.NewDomainEmbedder(128))
	for _, r := range hist.All() {
		store.Add(r.ID, r.Text())
	}
	tool := NewSimilarIncidentsTool(store, hist, "packet drops in web tier us-east")
	res, err := tool.Invoke(nil, map[string]string{"k": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, "similar=h1") {
		t.Fatalf("retrieval wrong: %v", res.Findings)
	}
	empty := NewSimilarIncidentsTool(embed.NewStore(embed.NewDomainEmbedder(16)), hist, "q")
	res, _ = empty.Invoke(nil, nil)
	if !hasFinding(res, "database=empty") {
		t.Fatal("empty store not reported")
	}
}

func TestAskCustomerToolRevealsPattern(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.NovelProtocol{}, 12)
	res, _ := NewAskCustomerTool("directconnect").Invoke(in.World, nil)
	if !hasFinding(res, "pattern=hdr-0xdead") {
		t.Fatalf("customer pattern not revealed: %v", res.Findings)
	}
	res, _ = NewAskCustomerTool("no-such-service").Invoke(in.World, nil)
	if !hasFinding(res, "no-details") {
		t.Fatal("missing-service answer wrong")
	}
}

func TestBrokenCollectorSurfacesAsUnavailable(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	w.Inject(&netsim.MonitorBrokenFault{Monitor: "linkutil"})
	res, _ := NewLinkUtilTool().Invoke(w, nil)
	if !hasFinding(res, "linkutil_unavailable=true") {
		t.Fatalf("broken collector not surfaced: %v", res.Findings)
	}
}

func TestRiskClassString(t *testing.T) {
	t.Parallel()
	for rc, want := range map[RiskClass]string{RiskReadOnly: "read-only", RiskLow: "low", RiskMedium: "medium", RiskHigh: "high"} {
		if rc.String() != want {
			t.Errorf("%d -> %q", int(rc), rc.String())
		}
	}
}

func TestLossHistoryToolClassifiesFlap(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.GrayLinkFlapping{}, 21)
	// Let the flap run so the recorder captures oscillation.
	for i := 0; i < 50; i++ {
		in.World.Clock.Advance(1 * time.Minute)
		in.World.Invalidate()
	}
	res, err := NewLossHistoryTool().Invoke(in.World, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, "loss_trend=intermittent") {
		t.Fatalf("flap not classified intermittent: %v", res.Findings)
	}
}

func TestLossHistoryToolQuietWorld(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	for i := 0; i < 20; i++ {
		w.Clock.Advance(2 * time.Minute)
	}
	res, err := NewLossHistoryTool().Invoke(w, map[string]string{"lookbackmin": "30"})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, "all_series=quiet") {
		t.Fatalf("healthy world findings: %v", res.Findings)
	}
}

func TestLossHistoryToolWithoutRecorder(t *testing.T) {
	t.Parallel()
	n := netsim.NewNetwork()
	n.AddNode(netsim.Node{ID: "a"})
	w := netsim.NewWorld(n, nil, nil)
	res, err := NewLossHistoryTool().Invoke(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, "history=unavailable") {
		t.Fatalf("findings: %v", res.Findings)
	}
}

func TestSyslogToolReportsRestoredLinks(t *testing.T) {
	t.Parallel()
	w := scenarios.StandardWorld()
	lid := netsim.MakeLinkID("us-east-tor-p0-0", "us-east-agg-p0-0")
	w.Inject(&netsim.LinkDownFault{Link: lid})
	w.Resolve("link-down:" + string(lid)) // repaired before anyone looked
	res, err := NewSyslogTool().Invoke(w, map[string]string{"sincemin": "120", "sev": "warning"})
	if err != nil {
		t.Fatal(err)
	}
	if hasFinding(res, kb.CLinkDown+"=true") {
		t.Fatalf("restored link still reported down: %v", res.Findings)
	}
	if !hasFinding(res, "links=restored") {
		t.Fatalf("restoration not surfaced: %v", res.Findings)
	}
}

func TestSyslogToolBindsDownLink(t *testing.T) {
	t.Parallel()
	in := build(t, &scenarios.MaintenanceOverlap{}, 31)
	res, err := NewSyslogTool().Invoke(in.World, map[string]string{"sincemin": "120", "sev": "warning"})
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(res, kb.CLinkDown+"=true") {
		t.Fatalf("down links not found: %v", res.Findings)
	}
	if res.Bindings[kb.PhLink] == "" {
		t.Fatal("no $LINK binding from syslog")
	}
}
