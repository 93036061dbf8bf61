package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRouteTrafficNoOverload(t *testing.T) {
	t.Parallel()
	n := lineNet()
	flows := []*Flow{{ID: "f1", Src: "a", Dst: "d", DemandGbps: 50, Service: "web"}}
	rep := RouteTraffic(n, flows, nil)
	if rep.OverallLossRate() != 0 {
		t.Errorf("loss = %v, want 0", rep.OverallLossRate())
	}
	ls := rep.LinkStat(MakeLinkID("a", "b"))
	if ls.Load.AB != 50 || ls.Load.BA != 0 {
		t.Errorf("directed load = %+v, want AB=50", ls.Load)
	}
	if ls.Utilization != 0.5 {
		t.Errorf("util = %v, want 0.5", ls.Utilization)
	}
	if rep.TotalDelivered != 50 {
		t.Errorf("delivered = %v, want 50", rep.TotalDelivered)
	}
}

func TestRouteTrafficOverloadLoss(t *testing.T) {
	t.Parallel()
	n := lineNet()
	flows := []*Flow{{ID: "f1", Src: "a", Dst: "d", DemandGbps: 200, Service: "web"}}
	rep := RouteTraffic(n, flows, nil)
	// Each of 3 links drops (200-100)/200 = 0.5; delivery = 0.5^3.
	want := 1 - math.Pow(0.5, 3)
	if got := rep.FlowStats[0].LossRate; math.Abs(got-want) > 1e-9 {
		t.Errorf("flow loss = %v, want %v", got, want)
	}
	if rep.LinkStat(MakeLinkID("a", "b")).Utilization != 2.0 {
		t.Errorf("util = %v, want 2.0", rep.LinkStat(MakeLinkID("a", "b")).Utilization)
	}
}

func TestRouteTrafficECMPSplits(t *testing.T) {
	t.Parallel()
	n := diamondNet()
	flows := []*Flow{{ID: "f1", Src: "a", Dst: "d", DemandGbps: 100, Service: "web"}}
	rep := RouteTraffic(n, flows, nil)
	for _, lid := range []LinkID{MakeLinkID("a", "b"), MakeLinkID("a", "c")} {
		if got := max(rep.LinkStat(lid).Load.AB, rep.LinkStat(lid).Load.BA); got != 50 {
			t.Errorf("link %s load = %v, want 50 (ECMP split)", lid, got)
		}
	}
	if rep.OverallLossRate() != 0 {
		t.Errorf("loss = %v, want 0", rep.OverallLossRate())
	}
}

func TestRouteTrafficUnroutedFlow(t *testing.T) {
	t.Parallel()
	n := lineNet()
	n.Node("b").Healthy = false
	flows := []*Flow{{ID: "f1", Src: "a", Dst: "d", DemandGbps: 10, Service: "web"}}
	rep := RouteTraffic(n, flows, nil)
	fs := rep.FlowStats[0]
	if fs.Routed || fs.LossRate != 1 || fs.Delivered() != 0 {
		t.Errorf("unrouted flow stats = %+v", fs)
	}
	if rep.ServiceStats["web"].Unrouted != 1 {
		t.Error("service stats missed unrouted flow")
	}
	if rep.OverallLossRate() != 1 {
		t.Errorf("overall loss = %v, want 1", rep.OverallLossRate())
	}
}

func TestRouteTrafficCorruptionLoss(t *testing.T) {
	t.Parallel()
	n := lineNet()
	n.Link(MakeLinkID("b", "c")).CorruptRate = 0.02
	flows := []*Flow{{ID: "f1", Src: "a", Dst: "d", DemandGbps: 10, Service: "web"}}
	rep := RouteTraffic(n, flows, nil)
	if got := rep.FlowStats[0].LossRate; math.Abs(got-0.02) > 1e-9 {
		t.Errorf("loss = %v, want 0.02 from corruption", got)
	}
}

func TestHotLinksSorted(t *testing.T) {
	t.Parallel()
	n := diamondNet()
	// Make one branch half capacity so it runs hotter.
	n.Link(MakeLinkID("a", "b")).CapacityGbps = 50
	flows := []*Flow{{ID: "f1", Src: "a", Dst: "d", DemandGbps: 80, Service: "web"}}
	rep := RouteTraffic(n, flows, nil)
	hot := rep.HotLinks(0.5)
	if len(hot) == 0 {
		t.Fatal("no hot links found")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i-1].Utilization < hot[i].Utilization {
			t.Fatal("HotLinks not sorted descending")
		}
	}
	if hot[0].Link != MakeLinkID("a", "b") {
		t.Errorf("hottest link = %s, want a--b", hot[0].Link)
	}
}

func TestServiceStatsAggregation(t *testing.T) {
	t.Parallel()
	n := lineNet()
	flows := []*Flow{
		{ID: "f1", Src: "a", Dst: "d", DemandGbps: 10, Service: "web"},
		{ID: "f2", Src: "d", Dst: "a", DemandGbps: 20, Service: "web"},
		{ID: "f3", Src: "a", Dst: "b", DemandGbps: 5, Service: "db"},
	}
	rep := RouteTraffic(n, flows, nil)
	web := rep.ServiceStats["web"]
	if web.Flows != 2 || web.Demand != 30 {
		t.Errorf("web stats = %+v", web)
	}
	if rep.ServiceStats["db"].Flows != 1 {
		t.Error("db service missing")
	}
}

func TestUniformMeshFlows(t *testing.T) {
	t.Parallel()
	flows := UniformMeshFlows([]NodeID{"a", "b", "c"}, 2, "bulk")
	if len(flows) != 6 {
		t.Fatalf("got %d flows, want 6", len(flows))
	}
	for _, f := range flows {
		if f.Src == f.Dst || f.DemandGbps != 2 || f.Service != "bulk" {
			t.Errorf("bad flow %+v", f)
		}
	}
}

func TestFlowAttr(t *testing.T) {
	t.Parallel()
	f := &Flow{}
	if f.Attr("x") != "" {
		t.Error("nil attrs should return empty")
	}
	f.Attrs = map[string]string{"x": "1"}
	if f.Attr("x") != "1" {
		t.Error("attr lookup failed")
	}
}

// Property: conservation — delivered traffic never exceeds demand, and
// loss rates stay within [0,1] regardless of demand scale.
func TestTrafficConservationProperty(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	BuildClos(n, ClosConfig{Region: "r", Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, HostsPerToR: 1, LinkGbps: 40, HostLinkGbps: 10})
	hosts := n.NodesByKind(KindHost)

	check := func(seed int64, scaleRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 1 + float64(scaleRaw) // 1..256 Gbps per flow
		var flows []*Flow
		for i := 0; i < 6; i++ {
			a, b := rng.Intn(len(hosts)), rng.Intn(len(hosts))
			if a == b {
				continue
			}
			flows = append(flows, &Flow{
				ID: string(rune('A' + i)), Src: hosts[a].ID, Dst: hosts[b].ID,
				DemandGbps: scale * rng.Float64(), Service: "p",
			})
		}
		rep := RouteTraffic(n, flows, nil)
		if rep.TotalDelivered > rep.TotalDemand+1e-9 {
			return false
		}
		for _, fs := range rep.FlowStats {
			if fs.LossRate < -1e-9 || fs.LossRate > 1+1e-9 {
				return false
			}
		}
		for _, ls := range rep.Links {
			if ls.LossRate < 0 || ls.LossRate > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding demand to a fixed network never decreases any link's
// utilization (monotonicity of the fluid model).
func TestUtilizationMonotoneProperty(t *testing.T) {
	t.Parallel()
	n := diamondNet()
	base := []*Flow{{ID: "f", Src: "a", Dst: "d", DemandGbps: 30, Service: "p"}}
	repBase := RouteTraffic(n, base, nil)
	check := func(extraRaw uint8) bool {
		extra := float64(extraRaw)
		flows := []*Flow{{ID: "f", Src: "a", Dst: "d", DemandGbps: 30 + extra, Service: "p"}}
		rep := RouteTraffic(n, flows, nil)
		for i, ls := range rep.Links {
			if ls.Utilization < repBase.Links[i].Utilization-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
