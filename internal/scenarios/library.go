package scenarios

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

var incidentSeq atomic.Int64

func nextIncidentID(class string) string {
	return fmt.Sprintf("INC-%s-%04d", class, incidentSeq.Add(1))
}

// DeviceFailure: a ToR or gateway crashes; its hosts are blackholed or
// cross-region capacity halves. Chain depth 1. The bread-and-butter
// incident class any predictor should handle.
type DeviceFailure struct{}

// Name implements Scenario.
func (s *DeviceFailure) Name() string { return "device-failure" }

// RootCauseClass implements Scenario.
func (s *DeviceFailure) RootCauseClass() string { return kb.CDeviceDown }

// Build implements Scenario.
func (s *DeviceFailure) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	region := pick(rng, regions)
	var target netsim.NodeID
	if rng.Intn(2) == 0 {
		target = netsim.NodeID(fmt.Sprintf("%s-tor-p%d-0", region, rng.Intn(3)))
	} else {
		target = netsim.NodeID(region + "-gw-" + fmt.Sprint(rng.Intn(2)))
	}
	fault := &netsim.DeviceDownFault{Node: target}
	w.Inject(fault)

	truth := &incident.GroundTruth{
		RootCause:   kb.CDeviceDown,
		CausalChain: []string{kb.CDeviceDown, kb.CPacketLoss},
		FaultIDs:    []string{fault.ID()},
		RequiredMitigations: [][]mitigation.Action{
			{{Kind: mitigation.RestartDevice, Target: string(target)}},
		},
	}
	title, summary := phraseFor(rng, "device-failure", region)
	inc := detect(w, rng, nextIncidentID("DEV"), title, summary, truth)
	inc.Service = "web"
	return &Instance{World: w, Incident: inc, Scenario: s}
}

// GrayLink: a fabric link corrupts frames without dropping carrier — the
// classic gray failure. Chain depth 1-2 (corruption -> loss). Correct
// mitigation is isolating the corrupting link.
type GrayLink struct{}

// Name implements Scenario.
func (s *GrayLink) Name() string { return "gray-link" }

// RootCauseClass implements Scenario.
func (s *GrayLink) RootCauseClass() string { return kb.CLinkCorruption }

// Build implements Scenario.
func (s *GrayLink) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	region := pick(rng, regions)
	pod := rng.Intn(3)
	lid := netsim.MakeLinkID(
		netsim.NodeID(fmt.Sprintf("%s-tor-p%d-0", region, pod)),
		netsim.NodeID(fmt.Sprintf("%s-agg-p%d-%d", region, pod, rng.Intn(2))),
	)
	rate := 0.15 + 0.1*rng.Float64()
	fault := &netsim.LinkCorruptionFault{Link: lid, Rate: rate}
	w.Inject(fault)

	truth := &incident.GroundTruth{
		RootCause:   kb.CLinkCorruption,
		CausalChain: []string{kb.CLinkCorruption, kb.CPacketLoss},
		FaultIDs:    []string{fault.ID()},
		RequiredMitigations: [][]mitigation.Action{
			{{Kind: mitigation.IsolateLink, Target: string(lid)}},
		},
	}
	title, summary := phraseFor(rng, "gray-link", region)
	inc := detect(w, rng, nextIncidentID("GRAY"), title, summary, truth)
	inc.Service = "web"
	return &Instance{World: w, Incident: inc, Scenario: s}
}

// Congestion: a tenant demand surge overloads fabric-to-WAN capacity.
// Chain depth 2 (surge -> overload -> loss). Correct mitigation is rate
// limiting the surging service.
type Congestion struct{}

// Name implements Scenario.
func (s *Congestion) Name() string { return "congestion" }

// RootCauseClass implements Scenario.
func (s *Congestion) RootCauseClass() string { return kb.CTrafficSurge }

// Build implements Scenario.
func (s *Congestion) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	factor := 1.9 + 0.4*rng.Float64()
	fault := &netsim.TrafficSurgeFault{Service: "bulk-transfer", Factor: factor}
	w.Inject(fault)

	truth := &incident.GroundTruth{
		RootCause:   kb.CTrafficSurge,
		CausalChain: []string{kb.CTrafficSurge, kb.CLinkOverload, kb.CPacketLoss},
		FaultIDs:    []string{fault.ID()},
		RequiredMitigations: [][]mitigation.Action{
			{{Kind: mitigation.RateLimitService, Target: "bulk-transfer"}},
		},
	}
	title, summary := phraseFor(rng, "congestion", "")
	inc := detect(w, rng, nextIncidentID("CONG"), title, summary, truth)
	inc.Service = "bulk-transfer"
	return &Instance{World: w, Incident: inc, Scenario: s}
}

// FalseAlarm: the PingMesh aggregation pipeline malfunctions and
// fabricates loss; the network itself is healthy. The correct response is
// repairing the monitor — any traffic-touching mitigation is a mistake.
type FalseAlarm struct{}

// Name implements Scenario.
func (s *FalseAlarm) Name() string { return "false-alarm" }

// RootCauseClass implements Scenario.
func (s *FalseAlarm) RootCauseClass() string { return kb.CMonitorFalseAlarm }

// Build implements Scenario.
func (s *FalseAlarm) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	fault := &netsim.MonitorBrokenFault{Monitor: telemetry.MonitorPingMesh}
	w.Inject(fault)

	truth := &incident.GroundTruth{
		RootCause:   kb.CMonitorFalseAlarm,
		CausalChain: []string{kb.CMonitorFalseAlarm, kb.CPacketLoss},
		FaultIDs:    []string{fault.ID()},
		RequiredMitigations: [][]mitigation.Action{
			{{Kind: mitigation.RepairMonitor, Target: telemetry.MonitorPingMesh}},
		},
	}
	// The alert engine sees ground truth and stays quiet; the page comes
	// from PingMesh dashboards, so fabricate the digest the way the
	// broken pipeline would.
	w.Clock.Advance(time.Duration(2+rng.Intn(5)) * time.Minute)
	w.Recompute()
	alerts := []telemetry.Alert{{
		At: w.Clock.Now(), Rule: "service-loss", Severity: netsim.SevError,
		Subject: "pingmesh",
		Detail:  "pingmesh reports 10.0% packet loss on all region pairs (0/0 flows unrouted)",
	}}
	title, summary := phraseFor(rng, "false-alarm", "")
	inc := incident.New(nextIncidentID("MON"), title,
		summary+"\n"+incident.Digest(alerts),
		int(netsim.SevError), w.Clock.Now(), alerts, truth)
	inc.Service = "probe"
	return &Instance{World: w, Incident: inc, Scenario: s}
}

// overrideFault forces the controller's belief about a WAN, modeling a
// fat-fingered controller directive (Cascade stage 3's root cause).
type overrideFault struct {
	WAN string
}

func (f *overrideFault) ID() string { return "ctl-override:" + f.WAN }

func (f *overrideFault) Description() string {
	return "controller directive marks " + f.WAN + " failed"
}

func (f *overrideFault) Apply(w *netsim.World) {
	if w.Ctl != nil {
		w.Ctl.Override(f.WAN, false)
		w.Logf(w.Ctl.NodeID, netsim.SevWarning, "operator directive: %s marked failed", f.WAN)
	}
}

func (f *overrideFault) Revert(w *netsim.World) {
	if w.Ctl != nil {
		w.Ctl.ClearOverride(f.WAN)
	}
}

// Cascade reconstructs the Casc-1 incident (Fig. 2) at three depths:
//
//	Stage 3: a controller directive marks B4 failed
//	         (wan_failover -> overload -> loss).
//	Stage 4: a transient prefix inconsistency appears with no change
//	         record (prefix_conflict -> failover -> overload -> loss).
//	Stage 5: a network-upgrade config push causes the inconsistency — the
//	         full published chain (config_push -> inconsistency ->
//	         prefix_conflict -> failover -> overload -> loss).
//
// Deeper stages demand more deduction steps; Fig. 2's argument is that
// one-shot predictors must leap the whole chain at once.
type Cascade struct {
	Stage int // 3, 4 or 5
}

// Name implements Scenario.
func (s *Cascade) Name() string { return fmt.Sprintf("cascade-%d", s.stage()) }

func (s *Cascade) stage() int {
	if s.Stage < 3 || s.Stage > 5 {
		return 5
	}
	return s.Stage
}

// RootCauseClass implements Scenario.
func (s *Cascade) RootCauseClass() string {
	switch s.stage() {
	case 3:
		return kb.CWANFailover
	case 4:
		return kb.CPrefixConflict
	default:
		return kb.CConfigInconsistency
	}
}

// Build implements Scenario.
func (s *Cascade) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	truth := &incident.GroundTruth{}
	overrideMitigation := []mitigation.Action{{Kind: mitigation.OverrideWAN, Target: "B4", Param: "healthy"}}

	switch s.stage() {
	case 3:
		fault := &overrideFault{WAN: "B4"}
		w.Inject(fault)
		rec := w.Changes.Add(netsim.ChangeRecord{
			At: w.Clock.Now(), Team: "wan", Kind: netsim.ChangeConfigPush,
			Description: "traffic-controller directive update",
			Details:     map[string]string{"fault_id": fault.ID()},
		})
		truth.RootCause = kb.CWANFailover
		truth.CausalChain = []string{kb.CWANFailover, kb.CLinkOverload, kb.CPacketLoss}
		truth.FaultIDs = []string{fault.ID()}
		truth.RootFixChange = rec.ID
		truth.RequiredMitigations = [][]mitigation.Action{
			{{Kind: mitigation.RollbackChange, Target: rec.ID}},
			overrideMitigation,
		}
	case 4:
		fault := &netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}}
		w.Inject(fault)
		truth.RootCause = kb.CPrefixConflict
		truth.CausalChain = []string{kb.CPrefixConflict, kb.CWANFailover, kb.CLinkOverload, kb.CPacketLoss}
		truth.FaultIDs = []string{fault.ID()}
		truth.RequiredMitigations = [][]mitigation.Action{overrideMitigation}
	default: // 5: the full Casc-1 chain
		fault := &netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}}
		w.Inject(fault)
		rec := w.Changes.Add(netsim.ChangeRecord{
			At: w.Clock.Now(), Team: "wan", Kind: netsim.ChangeConfigPush,
			Description: "network upgrade: staged WAN config push",
			Details:     map[string]string{"fault_id": fault.ID()},
		})
		truth.RootCause = kb.CConfigInconsistency
		truth.CausalChain = []string{kb.CConfigPush, kb.CConfigInconsistency, kb.CPrefixConflict, kb.CWANFailover, kb.CLinkOverload, kb.CPacketLoss}
		truth.FaultIDs = []string{fault.ID()}
		truth.RootFixChange = rec.ID
		truth.RequiredMitigations = [][]mitigation.Action{
			{{Kind: mitigation.RollbackChange, Target: rec.ID}},
			overrideMitigation,
		}
	}

	title, summary := phraseFor(rng, "cascade", "")
	inc := detect(w, rng, nextIncidentID("CASC"), title, summary, truth)
	inc.Service = "bulk-transfer"
	return &Instance{World: w, Incident: inc, Scenario: s}
}

// NovelProtocol reconstructs the AWS Direct Connect Tokyo incident
// (Fig. 3): a recently rolled-out fast-reroute protocol carries a latent
// defect triggered by one customer's packet pattern; devices wedge, and
// restarting them alone causes recurrence. Only disabling the protocol
// (plus restarting wedged devices) resolves it. The version-1 KB knows
// nothing about fastpath — this is the adaptivity experiment's workload.
type NovelProtocol struct{}

// Name implements Scenario.
func (s *NovelProtocol) Name() string { return "novel-protocol" }

// RootCauseClass implements Scenario.
func (s *NovelProtocol) RootCauseClass() string { return kb.CProtocolBug }

// Build implements Scenario.
func (s *NovelProtocol) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	// The rollout happened weeks before the incident.
	for _, nd := range w.Net.Nodes() {
		if nd.WANName == "B4" {
			w.Net.MutNode(nd.ID).Protocols[kb.FastpathProtocol] = true
		}
	}
	rollout := w.Changes.Add(netsim.ChangeRecord{
		At: 0, Team: "wan", Kind: netsim.ChangeProtocolRollout,
		Description: "fastpath fast-reroute protocol enabled on B4 routers",
		Details:     map[string]string{"protocol": kb.FastpathProtocol},
	})
	w.Clock.Advance(14 * 24 * time.Hour) // weeks of quiet operation

	fault := &netsim.ProtocolBugFault{Protocol: kb.FastpathProtocol, AttrKey: "pattern", AttrValue: "hdr-0xdead"}
	w.Inject(fault)
	// One tenant's traffic starts matching the trigger pattern.
	for _, f := range w.Flows() {
		if f.Service == "directconnect" {
			f.Attrs["pattern"] = "hdr-0xdead"
		}
	}
	w.Invalidate()

	truth := &incident.GroundTruth{
		RootCause: kb.CProtocolBug,
		CausalChain: []string{
			kb.CProtocolRollout, kb.CProtocolBug, kb.CDeviceOSCrash, kb.CDeviceDown, kb.CPacketLoss,
		},
		FaultIDs:      []string{fault.ID()},
		RootFixChange: rollout.ID,
		RequiredMitigations: [][]mitigation.Action{
			{{Kind: mitigation.DisableProtocol, Target: kb.FastpathProtocol}},
		},
		Novel: true,
	}
	title, summary := phraseFor(rng, "novel-protocol", "")
	inc := detect(w, rng, nextIncidentID("PROTO"), title, summary, truth)
	inc.Service = "directconnect"
	return &Instance{World: w, Incident: inc, Scenario: s}
}

// maintenanceFault takes a batch of links down together — the blast
// radius of one maintenance window.
type maintenanceFault struct {
	id    string
	links []netsim.LinkID
}

func (f *maintenanceFault) ID() string { return "maintenance:" + f.id }
func (f *maintenanceFault) Description() string {
	return fmt.Sprintf("maintenance window took %d links down", len(f.links))
}

func (f *maintenanceFault) Apply(w *netsim.World) {
	for _, lid := range f.links {
		if l := w.Net.MutLink(lid); l != nil {
			l.Down = true
			w.Logf(l.A, netsim.SevError, "link %s to %s: carrier lost", lid, l.B)
		}
	}
}

func (f *maintenanceFault) Revert(w *netsim.World) {
	for _, lid := range f.links {
		if l := w.Net.MutLink(lid); l != nil {
			l.Down = false
			w.Logf(l.A, netsim.SevInfo, "link %s restored", lid)
		}
	}
}

// MaintenanceOverlap models §2's "uncoordinated changes lead to new
// incidents": fiber work scheduled by one team takes down every direct
// B4 link between two regions at once. Traffic reroutes through a third
// region — no packet loss, but the latency SLO for cross-region
// services breaks. The fix is rolling the maintenance back (chain depth
// 2: maintenance_activity -> link_down -> latency_spike).
type MaintenanceOverlap struct{}

// Name implements Scenario.
func (s *MaintenanceOverlap) Name() string { return "maintenance-overlap" }

// RootCauseClass implements Scenario.
func (s *MaintenanceOverlap) RootCauseClass() string { return kb.CMaintenance }

// Build implements Scenario.
func (s *MaintenanceOverlap) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	// All direct B4 links between two regions (2 routers on each side).
	pairs := [][2]string{{"us-east", "us-west"}, {"us-east", "eu-north"}, {"us-west", "eu-north"}}
	pr := pairs[rng.Intn(len(pairs))]
	var victims []netsim.LinkID
	for ra := 0; ra < 2; ra++ {
		for rb := 0; rb < 2; rb++ {
			victims = append(victims, netsim.MakeLinkID(
				netsim.NodeID(fmt.Sprintf("B4-%s-r%d", pr[0], ra)),
				netsim.NodeID(fmt.Sprintf("B4-%s-r%d", pr[1], rb)),
			))
		}
	}
	fault := &maintenanceFault{id: pr[0] + "-" + pr[1], links: victims}
	w.Inject(fault)
	rec := w.Changes.Add(netsim.ChangeRecord{
		At: w.Clock.Now(), Team: "dcops", Kind: netsim.ChangeMaintenance,
		Description: fmt.Sprintf("fiber splice work on the %s<->%s span", pr[0], pr[1]),
		Details:     map[string]string{"fault_id": fault.ID()},
	})

	truth := &incident.GroundTruth{
		RootCause:     kb.CMaintenance,
		CausalChain:   []string{kb.CMaintenance, kb.CLinkDown, kb.CLatencySpike},
		FaultIDs:      []string{fault.ID()},
		RootFixChange: rec.ID,
		RequiredMitigations: [][]mitigation.Action{
			{{Kind: mitigation.RollbackChange, Target: rec.ID}},
		},
	}
	title, summary := phraseFor(rng, "maintenance-overlap", pr[0]+"<->"+pr[1])
	inc := detect(w, rng, nextIncidentID("MAINT"), title, summary, truth)
	inc.Service = "bulk-transfer"
	return &Instance{World: w, Incident: inc, Scenario: s}
}

// GrayLinkFlapping is the gray link's nastier cousin: the corruption
// comes and goes (thermal optics, a marginal transceiver), so a single
// tool sample can land in a quiet window and exonerate the guilty link.
// Only a loop that re-tests previously rejected hypotheses when impact
// persists — the paper's reassessment principle — pins it down. The flap
// duty cycle is 10 minutes corrupting, 4 minutes clean.
type GrayLinkFlapping struct{}

// Name implements Scenario.
func (s *GrayLinkFlapping) Name() string { return "gray-link-flap" }

// RootCauseClass implements Scenario.
func (s *GrayLinkFlapping) RootCauseClass() string { return kb.CLinkCorruption }

// Flap timing: asymmetric duty cycle.
const (
	flapOn  = 10 * time.Minute
	flapOff = 4 * time.Minute
)

// Build implements Scenario.
func (s *GrayLinkFlapping) Build(rng *rand.Rand) *Instance {
	w := StandardWorld()
	region := pick(rng, regions)
	pod := rng.Intn(3)
	lid := netsim.MakeLinkID(
		netsim.NodeID(fmt.Sprintf("%s-tor-p%d-0", region, pod)),
		netsim.NodeID(fmt.Sprintf("%s-agg-p%d-%d", region, pod, rng.Intn(2))),
	)
	rate := 0.15 + 0.1*rng.Float64()
	fault := &netsim.LinkCorruptionFault{Link: lid, Rate: rate}
	w.Inject(fault) // starts corrupting

	// Self-rescheduling toggle: while the fault is unresolved and the
	// link not isolated, corruption alternates on/off.
	var toggle func(on bool) func(*netsim.World)
	toggle = func(on bool) func(*netsim.World) {
		return func(ww *netsim.World) {
			l := ww.Net.MutLink(lid)
			if l == nil || !ww.FaultActive(fault.ID()) {
				return
			}
			if on {
				l.CorruptRate = rate
				ww.ScheduleAt(ww.Clock.Now()+flapOn, toggle(false))
			} else {
				l.CorruptRate = 0
				ww.ScheduleAt(ww.Clock.Now()+flapOff, toggle(true))
			}
			ww.Invalidate()
		}
	}
	w.ScheduleAt(w.Clock.Now()+flapOn, toggle(false))

	truth := &incident.GroundTruth{
		RootCause:   kb.CLinkCorruption,
		CausalChain: []string{kb.CLinkCorruption, kb.CPacketLoss},
		FaultIDs:    []string{fault.ID()},
		RequiredMitigations: [][]mitigation.Action{
			{{Kind: mitigation.IsolateLink, Target: string(lid)}},
		},
	}
	title, summary := phraseFor(rng, "gray-link-flap", region)
	inc := detect(w, rng, nextIncidentID("FLAP"), title, summary, truth)
	inc.Service = "web"
	return &Instance{World: w, Incident: inc, Scenario: s}
}
