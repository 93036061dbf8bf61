package netsim

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// buildBackboneWorld builds the standard dual-WAN world used across the
// repository's experiments: three regions, B2 (small) and B4 (big), a
// traffic controller, and inter-region bulk traffic sized to fit on B4
// but overload B2.
func buildBackboneWorld() *World {
	n := NewNetwork()
	bb := BuildBackbone(n, DefaultBackboneConfig())
	ctlNode := n.AddNode(Node{ID: "traffic-controller", Kind: KindController, Region: "us-east"})
	ctl := NewController(ctlNode.ID, []string{"B4", "B2"})
	w := NewWorld(n, ctl, bb)

	// Healthy announcements: each region announces its prefix on each WAN
	// from exactly one cluster.
	for i, region := range bb.Regions {
		prefix := regionPrefix(i)
		for _, wan := range bb.WANNames {
			ctl.Announce(PrefixAnnouncement{Prefix: prefix, WAN: wan, Cluster: region})
		}
	}

	// Inter-region bulk traffic aggregated at one spine per region: 300G
	// per directed pair fits B4 (1600G inter links) but overloads B2
	// (200G inter links) if the controller fails B4 over.
	var eps []NodeID
	for _, region := range bb.Regions {
		eps = append(eps, NodeID(region+"-spine-0"))
	}
	w.AddFlows(UniformMeshFlows(eps, 300, "bulk")...)
	return w
}

func regionPrefix(i int) string {
	return "10." + string(rune('0'+i)) + ".0.0/16"
}

func TestWorldHealthyBaseline(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	rep := w.Recompute()
	if got := rep.OverallLossRate(); got > 0.001 {
		t.Fatalf("healthy world loss = %v, want ~0", got)
	}
	if len(w.Ctl.FailedWANs()) != 0 {
		t.Fatalf("healthy world failed WANs = %v", w.Ctl.FailedWANs())
	}
	// Bulk traffic should ride B4 (preferred), not B2.
	b4 := wanLoad(w, rep, "B4")
	b2 := wanLoad(w, rep, "B2")
	if b4 == 0 || b2 != 0 {
		t.Fatalf("bulk load split B4=%v B2=%v, want all on B4", b4, b2)
	}
}

func wanLoad(w *World, rep *TrafficReport, wan string) float64 {
	var total float64
	for _, ls := range rep.Links {
		l := w.Net.Link(ls.Link)
		aw := w.Net.Node(l.A).WANName
		bw := w.Net.Node(l.B).WANName
		if aw == wan && bw == wan {
			total += ls.Load.AB + ls.Load.BA
		}
	}
	return total
}

// TestCascadeIncident reproduces the Casc-1 causal chain end to end:
// config inconsistency -> duplicate prefix observations -> controller
// declares B4 failed -> traffic shifts to B2 -> overload -> packet loss.
func TestCascadeIncident(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	if w.Recompute().OverallLossRate() > 0.001 {
		t.Fatal("precondition: healthy world should be lossless")
	}

	fault := &ConfigInconsistencyFault{
		WAN: "B4", Prefix: regionPrefix(0),
		Clusters: []string{"us-west", "eu-north"},
	}
	w.Inject(fault)
	rep := w.Recompute()

	if !slices.Contains(w.Ctl.FailedWANs(), "B4") {
		t.Fatal("controller did not misinterpret inconsistency as B4 failure")
	}
	if got := wanLoad(w, rep, "B4"); got != 0 {
		t.Errorf("B4 still carries %v Gbps after failover", got)
	}
	if got := wanLoad(w, rep, "B2"); got == 0 {
		t.Error("B2 carries no traffic after failover")
	}
	if loss := rep.OverallLossRate(); loss < 0.05 {
		t.Errorf("cascade loss = %v, want significant overload loss", loss)
	}

	// Mitigation 1 (operator override): force B4 healthy.
	w.Ctl.Override("B4", true)
	w.Invalidate()
	if loss := w.Recompute().OverallLossRate(); loss > 0.001 {
		t.Errorf("after override, loss = %v, want ~0", loss)
	}
	w.Ctl.ClearOverride("B4")
	w.Invalidate()
	if loss := w.Recompute().OverallLossRate(); loss < 0.05 {
		t.Error("clearing override should re-trigger the cascade")
	}

	// Mitigation 2 (root fix): revert the config inconsistency.
	w.Resolve(fault.ID())
	if loss := w.Recompute().OverallLossRate(); loss > 0.001 {
		t.Errorf("after config rollback, loss = %v, want ~0", loss)
	}
	if slices.Contains(w.Ctl.FailedWANs(), "B4") {
		t.Error("B4 still marked failed after rollback")
	}
}

// TestProtocolBugIncident reproduces the AWS Direct Connect Tokyo chain:
// new protocol with a latent bug -> device OS failure when a trigger flow
// transits -> packet loss; removing the device only moves the trigger flow
// to the next vulnerable device; disabling the protocol resolves it.
func TestProtocolBugIncident(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	// Roll out the new protocol on all B4 routers.
	for _, nd := range w.Net.Nodes() {
		if nd.WANName == "B4" {
			nd.Protocols["fastpath"] = true
		}
	}
	// Customer flow carrying the trigger pattern.
	w.AddFlows(&Flow{
		ID: "cust-1", Src: "us-east-host-p0-t0-h1", Dst: "eu-north-host-p0-t0-h1",
		DemandGbps: 5, Service: "directconnect",
		Attrs: map[string]string{"pattern": "hdr-0xdead"},
	})
	w.Inject(&ProtocolBugFault{Protocol: "fastpath", AttrKey: "pattern", AttrValue: "hdr-0xdead"})

	rep := w.Recompute()
	wedged := unhealthyCount(w)
	if wedged == 0 {
		t.Fatal("no device wedged by protocol bug")
	}
	if rep.ServiceStats["directconnect"].LossRate < 0.01 && rep.ServiceStats["directconnect"].Unrouted == 0 {
		// After devices wedge, the flow either reroutes through more
		// vulnerable devices (wedging them too) or becomes unroutable.
		t.Errorf("customer service unaffected: %+v", rep.ServiceStats["directconnect"])
	}

	// Mitigating by restarting wedged devices alone does NOT help: the
	// trigger fires again on recompute.
	for _, nd := range w.Net.Nodes() {
		if !nd.Healthy {
			nd.Healthy = true
		}
	}
	w.Invalidate()
	w.Recompute()
	if unhealthyCount(w) == 0 {
		t.Fatal("restart-only mitigation should re-wedge devices (recurrence)")
	}

	// Disable the protocol fleet-wide, restart devices: incident resolves.
	for _, nd := range w.Net.Nodes() {
		nd.Protocols["fastpath"] = false
		nd.Healthy = true
	}
	w.Invalidate()
	rep = w.Recompute()
	if unhealthyCount(w) != 0 {
		t.Fatal("devices wedged even with protocol disabled")
	}
	if loss := rep.OverallLossRate(); loss > 0.001 {
		t.Errorf("post-mitigation loss = %v, want ~0", loss)
	}
}

func unhealthyCount(w *World) int {
	n := 0
	for _, nd := range w.Net.Nodes() {
		if !nd.Healthy {
			n++
		}
	}
	return n
}

func TestLinkAndDeviceFaults(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	lid := MakeLinkID("us-east-tor-p0-0", "us-east-agg-p0-0")
	w.Inject(&LinkDownFault{Link: lid})
	if !w.Net.Link(lid).Down {
		t.Fatal("link not downed")
	}
	if len(w.faults) != 1 || !w.FaultActive("link-down:"+string(lid)) {
		t.Fatalf("active faults = %v", w.faults)
	}
	w.Resolve("link-down:" + string(lid))
	if w.Net.Link(lid).Down {
		t.Fatal("link not restored")
	}
	if w.FaultActive("link-down:" + string(lid)) {
		t.Fatal("fault still active after resolve")
	}

	w.Inject(&DeviceDownFault{Node: "us-east-spine-0"})
	if w.Net.Node("us-east-spine-0").Healthy {
		t.Fatal("device not downed")
	}
	w.Resolve("device-down:us-east-spine-0")
	if !w.Net.Node("us-east-spine-0").Healthy {
		t.Fatal("device not restored")
	}
}

func TestTrafficSurgeFault(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	var before float64
	for _, f := range w.Flows() {
		before += f.DemandGbps
	}
	f := &TrafficSurgeFault{Service: "bulk", Factor: 3}
	w.Inject(f)
	var after float64
	for _, fl := range w.Flows() {
		after += fl.DemandGbps
	}
	if after <= before*2.9 {
		t.Fatalf("surge did not scale demand: %v -> %v", before, after)
	}
	w.Resolve(f.ID())
	var restored float64
	for _, fl := range w.Flows() {
		restored += fl.DemandGbps
	}
	if restored < before*0.999 || restored > before*1.001 {
		t.Fatalf("revert did not restore demand: %v vs %v", restored, before)
	}
}

func TestMonitorBrokenFault(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	w.Inject(&MonitorBrokenFault{Monitor: "pingmesh"})
	if !w.BrokenMonitors["pingmesh"] {
		t.Fatal("monitor not marked broken")
	}
	w.Resolve("monitor-broken:pingmesh")
	if w.BrokenMonitors["pingmesh"] {
		t.Fatal("monitor still broken after resolve")
	}
}

func TestSyslogEvents(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	w.Clock.Advance(10 * time.Minute)
	w.Logf("us-east-spine-0", SevError, "test event %d", 42)
	evs := w.EventsSince(5 * time.Minute)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].At != 10*time.Minute || !strings.Contains(evs[0].Message, "42") {
		t.Errorf("event = %+v", evs[0])
	}
	if len(w.EventsSince(11*time.Minute)) != 0 {
		t.Error("EventsSince filter failed")
	}
}

func TestChangeLog(t *testing.T) {
	t.Parallel()
	cl := NewChangeLog()
	r1 := cl.Add(ChangeRecord{At: 2 * time.Hour, Team: "wan", Kind: ChangeConfigPush, Description: "push"})
	r2 := cl.Add(ChangeRecord{At: 1 * time.Hour, Team: "os", Kind: ChangeProtocolRollout, Description: "rollout"})
	if r1.ID == "" || r1.ID == r2.ID {
		t.Fatalf("IDs: %q %q", r1.ID, r2.ID)
	}
	all := cl.All()
	if len(all) != 2 || all[0].ID != r2.ID {
		t.Fatalf("All() not time-ordered: %+v", all)
	}
	if got := cl.Since(90 * time.Minute); len(got) != 1 || got[0].ID != r1.ID {
		t.Fatalf("Since: %+v", got)
	}
	if cl.Len() != 2 {
		t.Fatalf("Len = %d", cl.Len())
	}
}

func TestRemoveFlowsByService(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	n := len(w.Flows())
	removed := w.RemoveFlowsByService("bulk")
	if removed != n || len(w.Flows()) != 0 {
		t.Fatalf("removed %d of %d", removed, n)
	}
}

func TestControllerOverridePrecedence(t *testing.T) {
	t.Parallel()
	ctl := NewController("c", []string{"B4", "B2"})
	ctl.Override("B4", false) // operator forces B4 failed
	ctl.Evaluate()
	if !slices.Contains(ctl.FailedWANs(), "B4") {
		t.Fatal("override to failed ignored")
	}
	if got := ctl.AssignWAN(&Flow{}); got != "B2" {
		t.Fatalf("AssignWAN = %q, want B2", got)
	}
	ctl.ClearOverride("B4")
	ctl.Evaluate()
	if slices.Contains(ctl.FailedWANs(), "B4") {
		t.Fatal("override not cleared")
	}
	if got := ctl.AssignWAN(&Flow{Attrs: map[string]string{"wan": "B2"}}); got != "B2" {
		t.Fatalf("flow wan pin ignored: %q", got)
	}
}

func TestControllerAllWANsFailed(t *testing.T) {
	t.Parallel()
	ctl := NewController("c", []string{"B4", "B2"})
	ctl.Override("B4", false)
	ctl.Override("B2", false)
	ctl.Evaluate()
	if got := ctl.AssignWAN(&Flow{}); got != "" {
		t.Fatalf("AssignWAN = %q, want empty (total outage)", got)
	}
	// Filter must then reject all WAN routers.
	f := ctl.FilterFor(&Flow{})
	if f(&Node{Kind: KindWANRouter, WANName: "B4"}) {
		t.Fatal("filter admitted WAN router during total outage")
	}
	if !f(&Node{Kind: KindSpine}) {
		t.Fatal("filter rejected non-WAN node")
	}
}

func TestFixedControllerToleratesInconsistency(t *testing.T) {
	t.Parallel()
	w := buildBackboneWorld()
	w.Ctl.BuggyInconsistencyCheck = false // post-incident fixed controller
	w.Inject(&ConfigInconsistencyFault{WAN: "B4", Prefix: regionPrefix(0), Clusters: []string{"us-west", "eu-north"}})
	rep := w.Recompute()
	if slices.Contains(w.Ctl.FailedWANs(), "B4") {
		t.Fatal("fixed controller still declares B4 failed")
	}
	if loss := rep.OverallLossRate(); loss > 0.001 {
		t.Errorf("fixed controller loss = %v, want ~0", loss)
	}
}

// countingAttachment records the fork it follows into.
type countingAttachment struct{ forks int }

func (a *countingAttachment) ForkFor(*World) any { return &countingAttachment{forks: a.forks + 1} }

func TestWorldForkIsComplete(t *testing.T) {
	w := buildBackboneWorld()
	w.Report()
	w.Attachments["counting"] = &countingAttachment{}
	w.Attachments["opaque"] = 7
	fired := 0
	w.ScheduleAt(time.Hour, func(*World) { fired++ })
	w.Net.Share()

	f := w.Fork()
	if f.report == nil {
		t.Fatal("fork should carry a copy of the report, not recompute on first read")
	}
	if f.Report() == w.Report() || len(f.Report().FlowStats) != len(w.Flows()) {
		t.Fatal("fork should carry its own copy of the report")
	}
	for i, fs := range f.Report().FlowStats {
		if fs.Flow != f.Flows()[i] {
			t.Fatalf("fork report flow %d points at the template's flow", i)
		}
	}
	if a, ok := f.Attachments["counting"].(*countingAttachment); !ok || a.forks != 1 {
		t.Fatalf("Attachment not forked: %#v", f.Attachments["counting"])
	}
	if _, ok := f.Attachments["opaque"]; ok {
		t.Fatal("an attachment without ForkFor should be dropped")
	}
	if c := w.Clone(); len(c.Attachments) != 0 {
		t.Fatal("clones inherit no attachments")
	}
	f.Clock.Advance(2 * time.Hour)
	if fired != 1 || w.Clock.Now() != 0 {
		t.Fatalf("scheduled event fired %d times; template clock %v", fired, w.Clock.Now())
	}
}
