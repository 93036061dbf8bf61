package mitigation

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

func smallWorld() *netsim.World {
	n := netsim.NewNetwork()
	bb := netsim.BuildBackbone(n, netsim.DefaultBackboneConfig())
	ctlNode := n.AddNode(netsim.Node{ID: "traffic-controller", Kind: netsim.KindController, Region: "us-east"})
	ctl := netsim.NewController(ctlNode.ID, []string{"B4", "B2"})
	w := netsim.NewWorld(n, ctl, bb)
	for i, region := range bb.Regions {
		prefix := "10." + string(rune('0'+i)) + ".0.0/16"
		for _, wan := range bb.WANNames {
			ctl.Announce(netsim.PrefixAnnouncement{Prefix: prefix, WAN: wan, Cluster: region})
		}
	}
	var eps []netsim.NodeID
	for _, region := range bb.Regions {
		eps = append(eps, netsim.NodeID(region+"-spine-0"))
	}
	w.AddFlows(netsim.UniformMeshFlows(eps, 300, "bulk")...)
	return w
}

func TestActionStringAndMatches(t *testing.T) {
	t.Parallel()
	a := Action{Kind: OverrideWAN, Target: "B4", Param: "healthy"}
	if a.String() != "override-wan(B4,healthy)" {
		t.Errorf("String = %q", a.String())
	}
	if !a.Matches(Action{Kind: OverrideWAN, Target: "B4"}) {
		t.Error("empty-param requirement should match")
	}
	if a.Matches(Action{Kind: OverrideWAN, Target: "B2"}) {
		t.Error("target mismatch should not match")
	}
	if a.Matches(Action{Kind: OverrideWAN, Target: "B4", Param: "failed"}) {
		t.Error("param mismatch should not match")
	}
}

func TestPlanSatisfies(t *testing.T) {
	t.Parallel()
	p := Plan{Actions: []Action{
		{Kind: DisableProtocol, Target: "fastpath"},
		{Kind: RestartDevice, Target: "d1"},
	}}
	if !p.Satisfies([]Action{{Kind: DisableProtocol, Target: "fastpath"}}) {
		t.Error("subset requirement failed")
	}
	if p.Satisfies([]Action{{Kind: IsolateLink, Target: "l1"}}) {
		t.Error("unsatisfied requirement passed")
	}
	if !p.Satisfies(nil) {
		t.Error("empty requirement should pass")
	}
}

func TestExecutorIsolation(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	ex := &Executor{World: w, Actor: "test"}
	lid := string(netsim.MakeLinkID("us-east-tor-p0-0", "us-east-agg-p0-0"))
	if err := ex.Execute(Action{Kind: IsolateLink, Target: lid}); err != nil {
		t.Fatal(err)
	}
	if !w.Net.Link(netsim.LinkID(lid)).Isolated {
		t.Fatal("link not isolated")
	}
	if err := ex.Execute(Action{Kind: DeisolateLink, Target: lid}); err != nil {
		t.Fatal(err)
	}
	if w.Net.Link(netsim.LinkID(lid)).Isolated {
		t.Fatal("link not de-isolated")
	}
	if err := ex.Execute(Action{Kind: IsolateLink, Target: "nope"}); err == nil {
		t.Fatal("unknown link accepted")
	}
	// Mitigations are recorded as changes.
	got := 0
	for _, r := range w.Changes.All() {
		if r.Kind == netsim.ChangeMitigation {
			got++
		}
	}
	if got != 2 {
		t.Errorf("change log has %d mitigation records, want 2", got)
	}
}

func TestExecutorDeviceLifecycle(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	ex := &Executor{World: w, Actor: "test"}
	w.Inject(&netsim.DeviceDownFault{Node: "us-east-spine-0"})
	if err := ex.Execute(Action{Kind: IsolateDevice, Target: "us-east-spine-0"}); err != nil {
		t.Fatal(err)
	}
	if !w.Net.Node("us-east-spine-0").Isolated {
		t.Fatal("device not isolated")
	}
	if err := ex.Execute(Action{Kind: RestartDevice, Target: "us-east-spine-0"}); err != nil {
		t.Fatal(err)
	}
	if !w.Net.Node("us-east-spine-0").Healthy {
		t.Fatal("restart did not recover device")
	}
	if err := ex.Execute(Action{Kind: DeisolateDevice, Target: "us-east-spine-0"}); err != nil {
		t.Fatal(err)
	}
	if w.Net.Node("us-east-spine-0").Isolated {
		t.Fatal("device still isolated")
	}
}

func TestExecutorRollbackChange(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	fault := &netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}}
	w.Inject(fault)
	rec := w.Changes.Add(netsim.ChangeRecord{
		At: w.Clock.Now(), Team: "wan", Kind: netsim.ChangeConfigPush,
		Description: "WAN upgrade config push",
		Details:     map[string]string{"fault_id": fault.ID()},
	})
	if w.Recompute().OverallLossRate() < 0.05 {
		t.Fatal("precondition: cascade should cause loss")
	}
	ex := &Executor{World: w, Actor: "oce"}
	if err := ex.Execute(Action{Kind: RollbackChange, Target: rec.ID}); err != nil {
		t.Fatal(err)
	}
	if w.Recompute().OverallLossRate() > 0.001 {
		t.Fatal("rollback did not resolve the cascade")
	}
	if err := ex.Execute(Action{Kind: RollbackChange, Target: "CHG-999999"}); err == nil {
		t.Fatal("unknown change accepted")
	}
}

func TestExecutorOverrideWAN(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	w.Inject(&netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}})
	ex := &Executor{World: w, Actor: "oce"}
	if err := ex.Execute(Action{Kind: OverrideWAN, Target: "B4", Param: "healthy"}); err != nil {
		t.Fatal(err)
	}
	if w.Recompute().OverallLossRate() > 0.001 {
		t.Fatal("override did not stop the cascade")
	}
	if err := ex.Execute(Action{Kind: OverrideWAN, Target: "B4", Param: "clear"}); err != nil {
		t.Fatal(err)
	}
	if w.Recompute().OverallLossRate() < 0.05 {
		t.Fatal("clearing override should resume the cascade")
	}
	if err := ex.Execute(Action{Kind: OverrideWAN, Target: "B4", Param: "bogus"}); err == nil {
		t.Fatal("bad param accepted")
	}
}

func TestExecutorDisableProtocolScoped(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	for _, nd := range w.Net.Nodes() {
		if nd.WANName != "" {
			nd.Protocols["fastpath"] = true
		}
	}
	ex := &Executor{World: w, Actor: "oce"}
	if err := ex.Execute(Action{Kind: DisableProtocol, Target: "fastpath", Param: "B4"}); err != nil {
		t.Fatal(err)
	}
	for _, nd := range w.Net.Nodes() {
		switch nd.WANName {
		case "B4":
			if nd.ProtocolEnabled("fastpath") {
				t.Fatalf("fastpath still enabled on %s", nd.ID)
			}
		case "B2":
			if !nd.ProtocolEnabled("fastpath") {
				t.Fatalf("scope leak: fastpath disabled on %s", nd.ID)
			}
		}
	}
}

func TestExecutorMoveAndRateLimit(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	ex := &Executor{World: w, Actor: "oce"}
	if err := ex.Execute(Action{Kind: MoveService, Target: "bulk", Param: "B2"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range w.Flows() {
		if f.Attr("wan") != "B2" {
			t.Fatalf("flow %s not pinned to B2", f.ID)
		}
	}
	before := w.Flows()[0].DemandGbps
	if err := ex.Execute(Action{Kind: RateLimitService, Target: "bulk", Param: "0.5"}); err != nil {
		t.Fatal(err)
	}
	if got := w.Flows()[0].DemandGbps; got != before/2 {
		t.Fatalf("demand = %v, want %v", got, before/2)
	}
	if err := ex.Execute(Action{Kind: RateLimitService, Target: "bulk", Param: "2.0"}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if err := ex.Execute(Action{Kind: RateLimitService, Target: "bulk", Param: "x"}); err == nil {
		t.Fatal("garbage fraction accepted")
	}
}

func TestExecutorRepairMonitorAndEscalate(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	w.Inject(&netsim.MonitorBrokenFault{Monitor: "pingmesh"})
	ex := &Executor{World: w, Actor: "oce"}
	if err := ex.Execute(Action{Kind: RepairMonitor, Target: "pingmesh"}); err != nil {
		t.Fatal(err)
	}
	if w.BrokenMonitors["pingmesh"] {
		t.Fatal("monitor not repaired")
	}
	if err := ex.Execute(Action{Kind: Escalate, Target: "SWAT"}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Execute(Action{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestExecutorClockedAdvancesTime(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	ex := &Executor{World: w, Clocked: true, Actor: "oce"}
	start := w.Clock.Now()
	if err := ex.ExecutePlan(Plan{Actions: []Action{
		{Kind: OverrideWAN, Target: "B4", Param: "healthy"},
		{Kind: Escalate, Target: "SWAT"},
	}}); err != nil {
		t.Fatal(err)
	}
	want := ExecLatency[OverrideWAN] + ExecLatency[Escalate]
	if got := w.Clock.Now() - start; got != want {
		t.Fatalf("clock advanced %v, want %v", got, want)
	}
}

func TestVerifier(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	v := &Verifier{World: w}
	if !v.Mitigated() {
		t.Fatal("healthy world not mitigated")
	}
	w.Inject(&netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}})
	if v.Mitigated() {
		t.Fatal("cascade world reported mitigated")
	}
	// A wedged device blocks mitigation even without loss; isolating it
	// is an accepted mitigation.
	w.Resolve("config-inconsistency:B4:10.0.0.0/16")
	w.Net.MutNode("us-east-spine-3").Healthy = false
	w.Invalidate()
	if v.Mitigated() {
		t.Fatal("wedged device should block mitigated state")
	}
	w.Net.MutNode("us-east-spine-3").Isolated = true
	w.Invalidate()
	if !v.Mitigated() {
		t.Fatal("isolated wedged device should be acceptable")
	}
}

func TestExecLatencyTable(t *testing.T) {
	t.Parallel()
	for _, k := range []ActionKind{IsolateLink, RestartDevice, RollbackChange, Escalate} {
		if (Action{Kind: k}).Latency() <= 0 {
			t.Errorf("action %s has no latency", k)
		}
	}
	if (Action{Kind: NoOp}).Latency() != 0 {
		t.Error("no-op should be free")
	}
	_ = time.Minute
}

func TestExecutorNoOpAndUnknownService(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	ex := &Executor{World: w, Actor: "t"}
	if err := ex.Execute(Action{Kind: NoOp}); err != nil {
		t.Fatal(err)
	}
	// Moving or rate-limiting a service with no flows succeeds as a no-op
	// (real automation tolerates empty selectors).
	if err := ex.Execute(Action{Kind: MoveService, Target: "ghost", Param: "B2"}); err != nil {
		t.Fatal(err)
	}
	if err := ex.Execute(Action{Kind: RateLimitService, Target: "ghost", Param: "0.5"}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorEnableProtocolFleetWide(t *testing.T) {
	t.Parallel()
	w := smallWorld()
	ex := &Executor{World: w, Actor: "t"}
	if err := ex.Execute(Action{Kind: EnableProtocol, Target: "newproto"}); err != nil {
		t.Fatal(err)
	}
	enabled := 0
	for _, nd := range w.Net.Nodes() {
		if nd.ProtocolEnabled("newproto") {
			enabled++
		}
	}
	if enabled != w.Net.NumNodes() {
		t.Fatalf("enabled on %d/%d nodes", enabled, w.Net.NumNodes())
	}
	// Unscoped disable turns it off everywhere it exists.
	if err := ex.Execute(Action{Kind: DisableProtocol, Target: "newproto"}); err != nil {
		t.Fatal(err)
	}
	for _, nd := range w.Net.Nodes() {
		if nd.ProtocolEnabled("newproto") {
			t.Fatalf("still enabled on %s", nd.ID)
		}
	}
}
