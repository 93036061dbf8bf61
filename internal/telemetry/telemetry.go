// Package telemetry implements the monitoring substrate operators (and
// the OCE-helper's tools) query during incident management: PingMesh-style
// active probing, link utilization and drop counters, device health,
// syslog search, and a threshold-driven alert engine.
//
// Monitors sample the simulated world's traffic report. Each monitor has
// a simulated query latency (tool invocations advance the incident
// clock) and defines its own failure behaviour when the world marks it
// broken — a PingMesh with a broken aggregation pipeline fabricates loss,
// a broken utilization collector serves empty data. Helpers that cannot
// entertain the "the monitor is lying" hypothesis fail the paper's
// running example.
package telemetry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/netsim"
)

// Monitor names used in World.BrokenMonitors and by the toolbox.
const (
	MonitorPingMesh     = "pingmesh"
	MonitorLinkUtil     = "linkutil"
	MonitorDeviceHealth = "devicehealth"
	MonitorCounters     = "counters"
	MonitorSyslog       = "syslog"
)

// QueryLatency is the simulated time one monitor query costs the OCE (or
// helper). Dashboards are not instant: loading, scoping and reading a
// monitor takes minutes of incident time.
var QueryLatency = map[string]time.Duration{
	MonitorPingMesh:     2 * time.Minute,
	MonitorLinkUtil:     2 * time.Minute,
	MonitorDeviceHealth: 1 * time.Minute,
	MonitorCounters:     2 * time.Minute,
	MonitorSyslog:       3 * time.Minute,
}

// PairLoss is one PingMesh cell: observed probe loss between two regions.
type PairLoss struct {
	SrcRegion, DstRegion string
	LossRate             float64
}

// PingMesh actively probes representative host pairs across regions and
// reports per-region-pair loss. It mirrors the production systems the
// paper's toolbox examples reference.
type PingMesh struct {
	World *netsim.World
	// Probes maps each region to the representative host probes originate
	// from and terminate at. Defaults to the first host in the region.
	Probes map[string]netsim.NodeID
}

// NewPingMesh builds a PingMesh with default per-region probe hosts.
func NewPingMesh(w *netsim.World) *PingMesh {
	pm := &PingMesh{World: w, Probes: make(map[string]netsim.NodeID)}
	for _, region := range w.Net.Regions() {
		for _, nd := range w.Net.NodesInRegion(region) {
			if nd.Kind == netsim.KindHost {
				pm.Probes[region] = nd.ID
				break
			}
		}
	}
	return pm
}

// Broken reports whether the world marks this monitor malfunctioning.
func (p *PingMesh) Broken() bool { return p.World.BrokenMonitors[MonitorPingMesh] }

// Query measures loss between every ordered region pair. When the monitor
// is broken its aggregation pipeline fabricates uniform loss — the
// false-alarm signature. Results are sorted by (src, dst).
func (p *PingMesh) Query() []PairLoss {
	regions := make([]string, 0, len(p.Probes))
	for r := range p.Probes {
		regions = append(regions, r)
	}
	sort.Strings(regions)

	rep := p.World.Report()
	var out []PairLoss
	for _, src := range regions {
		for _, dst := range regions {
			if src == dst {
				continue
			}
			pl := PairLoss{SrcRegion: src, DstRegion: dst}
			if p.Broken() {
				pl.LossRate = 0.10 // fabricated: pipeline duplicates timeout records
			} else {
				pl.LossRate = probeLoss(p.World, rep, p.Probes[src], p.Probes[dst])
			}
			out = append(out, pl)
		}
	}
	return out
}

// probeLoss routes a zero-demand probe between two hosts under the
// current controller policy and evaluates delivery against the live
// per-link loss rates.
func probeLoss(w *netsim.World, rep *netsim.TrafficReport, src, dst netsim.NodeID) float64 {
	probe := &netsim.Flow{ID: "probe", Src: src, Dst: dst, Service: "probe"}
	var sel netsim.PathSelector
	if w.Ctl != nil {
		sel = w.Ctl
	}
	dag := netsim.RouteFlowDAG(w.Net, probe, sel)
	if dag == nil {
		return 1
	}
	return netsim.ProbeLossOverDAG(dag, rep)
}

// MaxLoss returns the worst pair loss in a PingMesh result.
func MaxLoss(pairs []PairLoss) float64 {
	worst := 0.0
	for _, p := range pairs {
		if p.LossRate > worst {
			worst = p.LossRate
		}
	}
	return worst
}

// LinkUtilSample is one link's utilization reading.
type LinkUtilSample struct {
	Link         netsim.LinkID
	Utilization  float64
	LossRate     float64
	CapacityGbps float64
}

// LinkUtilMonitor reports per-link utilization, optionally with reading
// noise (SNMP counters are rarely exact).
type LinkUtilMonitor struct {
	World    *netsim.World
	NoisePct float64    // +/- relative noise applied to readings
	Rng      *rand.Rand // required when NoisePct > 0
}

// Broken reports whether the world marks this monitor malfunctioning.
func (m *LinkUtilMonitor) Broken() bool { return m.World.BrokenMonitors[MonitorLinkUtil] }

// Top returns the k most utilized links, descending. A broken collector
// returns no rows (stale, empty dashboard).
func (m *LinkUtilMonitor) Top(k int) []LinkUtilSample {
	if m.Broken() {
		return nil
	}
	rep := m.World.Report()
	out := make([]LinkUtilSample, 0, len(rep.LinkStats))
	for lid, ls := range rep.LinkStats {
		l := m.World.Net.Link(lid)
		s := LinkUtilSample{Link: lid, Utilization: ls.Utilization, LossRate: ls.LossRate, CapacityGbps: l.CapacityGbps}
		if m.NoisePct > 0 && m.Rng != nil {
			s.Utilization *= 1 + m.NoisePct*(2*m.Rng.Float64()-1)
		}
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b LinkUtilSample) int {
		if c := cmp.Compare(b.Utilization, a.Utilization); c != 0 {
			return c // utilization descending
		}
		return cmp.Compare(a.Link, b.Link)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Utilization returns one link's reading; ok is false when the monitor is
// broken or the link is unknown.
func (m *LinkUtilMonitor) Utilization(id netsim.LinkID) (LinkUtilSample, bool) {
	if m.Broken() {
		return LinkUtilSample{}, false
	}
	rep := m.World.Report()
	ls, ok := rep.LinkStats[id]
	if !ok {
		return LinkUtilSample{}, false
	}
	l := m.World.Net.Link(id)
	return LinkUtilSample{Link: id, Utilization: ls.Utilization, LossRate: ls.LossRate, CapacityGbps: l.CapacityGbps}, true
}

// DeviceHealthRecord describes one device's current status.
type DeviceHealthRecord struct {
	Node     netsim.NodeID
	Kind     netsim.NodeKind
	Region   string
	Healthy  bool
	Isolated bool
}

// DeviceHealthMonitor reports unhealthy and isolated devices.
type DeviceHealthMonitor struct {
	World *netsim.World
}

// Broken reports whether the world marks this monitor malfunctioning.
func (m *DeviceHealthMonitor) Broken() bool { return m.World.BrokenMonitors[MonitorDeviceHealth] }

// Unhealthy lists devices that are down or isolated, sorted by ID. A
// broken health monitor reports everything healthy — the dangerous
// failure mode.
func (m *DeviceHealthMonitor) Unhealthy() []DeviceHealthRecord {
	if m.Broken() {
		return nil
	}
	var out []DeviceHealthRecord
	for _, nd := range m.World.Net.Nodes() {
		if nd.Healthy && !nd.Isolated {
			continue
		}
		out = append(out, DeviceHealthRecord{
			Node: nd.ID, Kind: nd.Kind, Region: nd.Region,
			Healthy: nd.Healthy, Isolated: nd.Isolated,
		})
	}
	return out
}

// DropCounter is a per-link discard counter reading in Gbps.
type DropCounter struct {
	Link     netsim.LinkID
	DropGbps float64
}

// CounterMonitor reports per-link drop counters derived from offered load
// and loss.
type CounterMonitor struct {
	World *netsim.World
}

// Broken reports whether the world marks this monitor malfunctioning.
func (m *CounterMonitor) Broken() bool { return m.World.BrokenMonitors[MonitorCounters] }

// Drops returns links with positive discards sorted by drop volume
// descending.
func (m *CounterMonitor) Drops() []DropCounter {
	if m.Broken() {
		return nil
	}
	rep := m.World.Report()
	var out []DropCounter
	for lid, ls := range rep.LinkStats {
		d := ls.Load.AB*ls.LossAB + ls.Load.BA*ls.LossBA
		if d > 1e-9 {
			out = append(out, DropCounter{Link: lid, DropGbps: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DropGbps != out[j].DropGbps {
			return out[i].DropGbps > out[j].DropGbps
		}
		return out[i].Link < out[j].Link
	})
	return out
}

// SyslogSearch queries device logs emitted by the world.
type SyslogSearch struct {
	World *netsim.World
}

// Broken reports whether the world marks this monitor malfunctioning.
func (s *SyslogSearch) Broken() bool { return s.World.BrokenMonitors[MonitorSyslog] }

// Since returns events at or after t with at least the given severity.
// A broken log pipeline returns nothing.
func (s *SyslogSearch) Since(t time.Duration, minSev netsim.Severity) []netsim.SyslogEvent {
	if s.Broken() {
		return nil
	}
	var out []netsim.SyslogEvent
	for _, e := range s.World.EventsSince(t) {
		if e.Severity >= minSev {
			out = append(out, e)
		}
	}
	return out
}

// Alert is a fired monitoring alarm; the alert engine converts threshold
// crossings into incident reports.
type Alert struct {
	At       time.Duration
	Rule     string
	Severity netsim.Severity
	Subject  string
	Detail   string
}

// String formats the alert as it would appear in an incident summary.
func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s %s: %s", a.Severity, a.Rule, a.Subject, a.Detail)
}

// AlertEngine evaluates threshold rules against the current world state.
type AlertEngine struct {
	World *netsim.World

	ServiceLossThreshold float64 // default 0.01
	LinkUtilThreshold    float64 // default 0.95
	LatencyRatio         float64 // default 1.5x baseline
}

// NewAlertEngine returns an engine with production-flavored defaults.
func NewAlertEngine(w *netsim.World) *AlertEngine {
	return &AlertEngine{World: w, ServiceLossThreshold: 0.01, LinkUtilThreshold: 0.95, LatencyRatio: 1.5}
}

// Evaluate fires alerts for the current world state: per-service loss,
// hot links, and down devices. Results are deterministic and sorted by
// (rule, subject).
func (e *AlertEngine) Evaluate() []Alert {
	rep := e.World.Report()
	now := e.World.Clock.Now()
	var out []Alert

	var services []string
	for s := range rep.ServiceStats {
		services = append(services, s)
	}
	sort.Strings(services)
	for _, s := range services {
		ss := rep.ServiceStats[s]
		if ss.LossRate >= e.ServiceLossThreshold {
			sev := netsim.SevError
			if ss.LossRate >= 0.1 {
				sev = netsim.SevCritical
			}
			out = append(out, Alert{
				At: now, Rule: "service-loss", Severity: sev, Subject: s,
				Detail: fmt.Sprintf("service %s experiencing %.1f%% packet loss (%d/%d flows unrouted)",
					s, ss.LossRate*100, ss.Unrouted, ss.Flows),
			})
		}
	}
	for _, s := range services {
		ss := rep.ServiceStats[s]
		base := e.World.LatencyBaseline[s]
		if base > 0 && ss.MaxLatency > e.LatencyRatio*base+1 {
			out = append(out, Alert{
				At: now, Rule: "latency", Severity: netsim.SevError, Subject: s,
				Detail: fmt.Sprintf("service %s latency %.1fms vs %.1fms baseline (%.1fx)",
					s, ss.MaxLatency, base, ss.MaxLatency/base),
			})
		}
	}
	for _, ls := range rep.HotLinks(e.LinkUtilThreshold) {
		out = append(out, Alert{
			At: now, Rule: "link-util", Severity: netsim.SevWarning, Subject: string(ls.Link),
			Detail: fmt.Sprintf("link %s at %.0f%% utilization", ls.Link, ls.Utilization*100),
		})
	}
	health := &DeviceHealthMonitor{World: e.World}
	for _, r := range health.Unhealthy() {
		if r.Isolated && r.Healthy {
			continue // operator-intended isolation is not an alert
		}
		out = append(out, Alert{
			At: now, Rule: "device-down", Severity: netsim.SevCritical, Subject: string(r.Node),
			Detail: fmt.Sprintf("device %s (%s, %s) unresponsive", r.Node, r.Kind, r.Region),
		})
	}
	return out
}
