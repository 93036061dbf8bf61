package telemetry

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
)

// testWorld builds the dual-WAN backbone world with bulk spine traffic
// (the same shape as netsim's incident tests).
func testWorld() *netsim.World {
	n := netsim.NewNetwork()
	bb := netsim.BuildBackbone(n, netsim.DefaultBackboneConfig())
	ctlNode := n.AddNode(netsim.Node{ID: "traffic-controller", Kind: netsim.KindController, Region: "us-east", Pod: -1})
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

func TestPingMeshHealthy(t *testing.T) {
	t.Parallel()
	w := testWorld()
	pm := NewPingMesh(w)
	pairs := pm.Query()
	if len(pairs) != 6 { // 3 regions, ordered pairs
		t.Fatalf("got %d pairs, want 6", len(pairs))
	}
	if MaxLoss(pairs) > 0.001 {
		t.Errorf("healthy pingmesh worst loss = %v", MaxLoss(pairs))
	}
}

func TestPingMeshSeesCascadeLoss(t *testing.T) {
	t.Parallel()
	w := testWorld()
	w.Inject(&netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}})
	w.Recompute()
	pm := NewPingMesh(w)
	if MaxLoss(pm.Query()) < 0.01 {
		t.Error("pingmesh blind to cascade overload loss")
	}
}

func TestPingMeshBrokenFabricatesLoss(t *testing.T) {
	t.Parallel()
	w := testWorld()
	w.Inject(&netsim.MonitorBrokenFault{Monitor: MonitorPingMesh})
	pm := NewPingMesh(w)
	pairs := pm.Query()
	if MaxLoss(pairs) < 0.05 {
		t.Error("broken pingmesh should fabricate loss (false-alarm signature)")
	}
	// Ground truth remains lossless: that is what makes it a false alarm.
	if w.Report().OverallLossRate() > 0.001 {
		t.Error("world actually lossy; test invalid")
	}
}

func TestLinkUtilTopSorted(t *testing.T) {
	t.Parallel()
	w := testWorld()
	m := &LinkUtilMonitor{World: w}
	top := m.Top(10)
	if len(top) != 10 {
		t.Fatalf("got %d rows, want 10", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Utilization < top[i].Utilization {
			t.Fatal("Top not sorted descending")
		}
	}
	if _, ok := m.Utilization(top[0].Link); !ok {
		t.Error("Utilization lookup failed for known link")
	}
	if _, ok := m.Utilization("no-such-link"); ok {
		t.Error("Utilization lookup succeeded for unknown link")
	}
}

func TestLinkUtilNoiseBounded(t *testing.T) {
	t.Parallel()
	w := testWorld()
	m := &LinkUtilMonitor{World: w, NoisePct: 0.05, Rng: rand.New(rand.NewSource(1))}
	clean := &LinkUtilMonitor{World: w}
	noisy := m.Top(5)
	exact := clean.Top(0)
	byLink := map[netsim.LinkID]float64{}
	for _, s := range exact {
		byLink[s.Link] = s.Utilization
	}
	for _, s := range noisy {
		base := byLink[s.Link]
		if base == 0 {
			continue
		}
		rel := s.Utilization/base - 1
		if rel < -0.051 || rel > 0.051 {
			t.Fatalf("noise %.3f outside +/-5%%", rel)
		}
	}
}

func TestLinkUtilBrokenEmpty(t *testing.T) {
	t.Parallel()
	w := testWorld()
	w.Inject(&netsim.MonitorBrokenFault{Monitor: MonitorLinkUtil})
	m := &LinkUtilMonitor{World: w}
	if m.Top(5) != nil {
		t.Error("broken collector should serve nothing")
	}
	if _, ok := m.Utilization("x"); ok {
		t.Error("broken collector lookup should fail")
	}
}

func TestDeviceHealthMonitor(t *testing.T) {
	t.Parallel()
	w := testWorld()
	m := &DeviceHealthMonitor{World: w}
	if got := m.Unhealthy(); len(got) != 0 {
		t.Fatalf("healthy world reports %d unhealthy", len(got))
	}
	w.Inject(&netsim.DeviceDownFault{Node: "us-east-spine-1"})
	w.Net.MutNode("us-west-tor-p0-0").Isolated = true
	got := m.Unhealthy()
	if len(got) != 2 {
		t.Fatalf("got %d unhealthy, want 2", len(got))
	}
	// Broken health monitor hides everything.
	w.Inject(&netsim.MonitorBrokenFault{Monitor: MonitorDeviceHealth})
	if m.Unhealthy() != nil {
		t.Error("broken health monitor should report all-healthy")
	}
}

func TestCounterMonitorDrops(t *testing.T) {
	t.Parallel()
	w := testWorld()
	m := &CounterMonitor{World: w}
	if got := m.Drops(); len(got) != 0 {
		t.Fatalf("healthy world has %d dropping links", len(got))
	}
	w.Inject(&netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}})
	w.Recompute()
	drops := m.Drops()
	if len(drops) == 0 {
		t.Fatal("cascade produced no drop counters")
	}
	for i := 1; i < len(drops); i++ {
		if drops[i-1].DropGbps < drops[i].DropGbps {
			t.Fatal("Drops not sorted descending")
		}
	}
	// The hottest droppers must be B2 inter-region links.
	if w.Net.Node(w.Net.Link(drops[0].Link).A).WANName != "B2" {
		t.Errorf("top dropper %s not on B2", drops[0].Link)
	}
}

func TestSyslogSearch(t *testing.T) {
	t.Parallel()
	w := testWorld()
	w.Clock.Advance(5 * time.Minute)
	w.Logf("us-east-spine-0", netsim.SevInfo, "routine")
	w.Logf("us-east-spine-0", netsim.SevCritical, "panic")
	s := &SyslogSearch{World: w}
	if got := s.Since(0, netsim.SevError); len(got) != 1 || got[0].Message != "panic" {
		t.Fatalf("severity filter failed: %+v", got)
	}
	w.Inject(&netsim.MonitorBrokenFault{Monitor: MonitorSyslog})
	if s.Since(0, netsim.SevInfo) != nil {
		t.Error("broken syslog should return nothing")
	}
}

func TestAlertEngineFiresOnCascade(t *testing.T) {
	t.Parallel()
	w := testWorld()
	e := NewAlertEngine(w)
	if got := e.Evaluate(); len(got) != 0 {
		t.Fatalf("healthy world fired %d alerts: %v", len(got), got)
	}
	w.Inject(&netsim.ConfigInconsistencyFault{WAN: "B4", Prefix: "10.0.0.0/16", Clusters: []string{"us-west", "eu-north"}})
	w.Recompute()
	alerts := e.Evaluate()
	var haveLoss, haveUtil bool
	for _, a := range alerts {
		switch a.Rule {
		case "service-loss":
			haveLoss = true
			if a.Severity != netsim.SevCritical {
				t.Errorf("33%% loss should be critical, got %v", a.Severity)
			}
		case "link-util":
			haveUtil = true
		}
	}
	if !haveLoss || !haveUtil {
		t.Fatalf("cascade alerts missing classes: %v", alerts)
	}
}

func TestAlertEngineDeviceDown(t *testing.T) {
	t.Parallel()
	w := testWorld()
	w.Inject(&netsim.DeviceDownFault{Node: "us-east-spine-0"})
	w.Invalidate()
	alerts := NewAlertEngine(w).Evaluate()
	found := false
	for _, a := range alerts {
		if a.Rule == "device-down" && a.Subject == "us-east-spine-0" {
			found = true
			if a.String() == "" {
				t.Error("alert String empty")
			}
		}
	}
	if !found {
		t.Fatalf("no device-down alert in %v", alerts)
	}
}

func TestQueryLatencyCoversAllMonitors(t *testing.T) {
	t.Parallel()
	for _, m := range []string{MonitorPingMesh, MonitorLinkUtil, MonitorDeviceHealth, MonitorCounters, MonitorSyslog} {
		if QueryLatency[m] <= 0 {
			t.Errorf("monitor %s has no query latency", m)
		}
	}
}
