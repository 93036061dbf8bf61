package netsim

import (
	"fmt"
	"slices"
	"testing"
)

// The persistent traffic engine may skip recomputation of anything it
// can prove unchanged, but its output must be bit-identical to a fresh
// full pass. These tests drive a world through every delta class the
// engine distinguishes — structural, rerouting, demand-only, loss-only —
// and diff the incrementally maintained report against an ephemeral
// engine's from-scratch result after each step.

func engineWorld() (*World, *Network) {
	n := diamondNet()
	w := NewWorld(n, nil, nil)
	w.AddFlows(
		&Flow{ID: "f1", Src: "a", Dst: "d", DemandGbps: 60, Service: "web"},
		&Flow{ID: "f2", Src: "d", Dst: "a", DemandGbps: 40, Service: "db"},
		&Flow{ID: "f3", Src: "b", Dst: "c", DemandGbps: 150, Service: "bulk"},
	)
	return w, n
}

func svcSummary(r *TrafficReport) []string {
	names := make([]string, 0, len(r.ServiceStats))
	for name := range r.ServiceStats {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([]string, 0, len(names))
	for _, name := range names {
		out = append(out, fmt.Sprintf("svc %s %+v", name, *r.ServiceStats[name]))
	}
	return out
}

func fullSummary(r *TrafficReport) string {
	return fmt.Sprintf("%+v\n%+v", reportSummary(r), svcSummary(r))
}

func checkEngine(t *testing.T, w *World, label string) {
	t.Helper()
	got := fullSummary(w.Recompute())
	var fresh trafficEngine
	want := fullSummary(fresh.route(w.Net, w.Flows(), nil))
	if got != want {
		t.Fatalf("%s: engine report diverged from fresh compute:\n got: %s\nwant: %s", label, got, want)
	}
}

func TestEngineMatchesFreshAcrossDeltas(t *testing.T) {
	w, n := engineWorld()
	checkEngine(t, w, "initial")

	steps := []struct {
		label string
		apply func()
	}{
		{"no-op recompute", func() {}},
		{"demand change", func() { w.Flows()[0].DemandGbps = 90 }},
		{"second demand change", func() { w.Flows()[1].DemandGbps = 10 }},
		{"link fault (reroute)", func() { n.MutLink(MakeLinkID("a", "b")).Down = true }},
		{"corrupt rate (loss-only)", func() { n.MutLink(MakeLinkID("a", "c")).CorruptRate = 0.2 }},
		{"link repair", func() { n.MutLink(MakeLinkID("a", "b")).Down = false }},
		{"corrupt cleared", func() { n.MutLink(MakeLinkID("a", "c")).CorruptRate = 0 }},
		{"overload demand", func() { w.Flows()[2].DemandGbps = 500 }},
		{"node fault", func() { n.MutNode("b").Healthy = false }},
		{"node repair", func() { n.MutNode("b").Healthy = true }},
		{"flow added", func() {
			w.AddFlows(&Flow{ID: "f4", Src: "a", Dst: "c", DemandGbps: 5, Service: "new"})
		}},
		{"service removed (prune)", func() { w.RemoveFlowsByService("db") }},
		{"structural growth", func() { n.AddLink("a", "d", 100, 1) }},
	}
	for _, step := range steps {
		step.apply()
		w.Invalidate()
		checkEngine(t, w, step.label)
	}
}

func TestEngineReportIdentityAndServicePrune(t *testing.T) {
	w, _ := engineWorld()
	r1 := w.Recompute()
	w.Invalidate()
	r2 := w.Recompute()
	if r1 != r2 {
		t.Fatal("persistent engine should reuse its report value across recomputes")
	}
	if _, ok := r2.ServiceStats["db"]; !ok {
		t.Fatal("setup: db service missing")
	}
	w.RemoveFlowsByService("db")
	r3 := w.Recompute()
	if _, ok := r3.ServiceStats["db"]; ok {
		t.Fatal("stale service aggregate survived a structural pass")
	}
	if len(r3.FlowStats) != 2 {
		t.Fatalf("FlowStats length = %d after removal, want 2", len(r3.FlowStats))
	}
}

func TestEngineCloneGetsOwnSlabs(t *testing.T) {
	w, _ := engineWorld()
	rep := w.Recompute()
	before := fullSummary(rep)
	c := w.Clone()
	c.Net.MutLink(MakeLinkID("a", "b")).Down = true
	c.Flows()[0].DemandGbps = 999
	c.Recompute()
	if after := fullSummary(w.Report()); after != before {
		t.Fatalf("clone recompute mutated the parent's report:\n before: %s\n after: %s", before, after)
	}
}

func TestFreeRouteTrafficMatchesWorldEngine(t *testing.T) {
	w, n := engineWorld()
	n.MutLink(MakeLinkID("b", "d")).CorruptRate = 0.1
	got := fullSummary(w.Recompute())
	want := fullSummary(RouteTraffic(n, w.Flows(), nil))
	if got != want {
		t.Fatalf("world engine and free RouteTraffic disagree:\n got: %s\nwant: %s", got, want)
	}
}

// TestWarmCopyMatchesFresh applies each delta class to a copy whose
// engine starts warm from its source's, and diffs the copy's report
// against a from-scratch pass. It covers Clone and Fork, a copy whose
// source routed again before the copy's first pass (the copy must fall
// back to a reset), and a copy of a copy that has not routed yet.
func TestWarmCopyMatchesFresh(t *testing.T) {
	deltas := []struct {
		label string
		apply func(w *World)
	}{
		{"none", func(*World) {}},
		{"demand", func(w *World) { w.Flows()[0].DemandGbps = 90 }},
		{"reroute", func(w *World) { w.Net.MutLink(MakeLinkID("a", "b")).Down = true }},
		{"loss-only", func(w *World) { w.Net.MutLink(MakeLinkID("a", "c")).CorruptRate = 0.2 }},
		{"loss cleared", func(w *World) { w.Net.MutLink(MakeLinkID("b", "d")).CorruptRate = 0 }},
		{"overload", func(w *World) { w.Flows()[2].DemandGbps = 500 }},
		{"node fault", func(w *World) { w.Net.MutNode("b").Healthy = false }},
		{"flow added", func(w *World) {
			w.AddFlows(&Flow{ID: "f4", Src: "a", Dst: "c", DemandGbps: 5, Service: "new"})
		}},
		{"flow removed", func(w *World) { w.RemoveFlowsByService("db") }},
		{"flow replaced", func(w *World) {
			w.RemoveFlowsByService("db")
			w.AddFlows(&Flow{ID: "f5", Src: "c", Dst: "b", DemandGbps: 40, Service: "db"})
		}},
		{"structural growth", func(w *World) { w.Net.AddLink("a", "d", 100, 1) }},
	}
	copies := []struct {
		label string
		copy  func(*World) *World
	}{
		{"clone", (*World).Clone},
		{"fork", func(w *World) *World { w.Net.Share(); return w.Fork() }},
	}
	base := func() *World {
		w, n := engineWorld()
		n.MutLink(MakeLinkID("b", "d")).CorruptRate = 0.05
		w.Recompute()
		return w
	}
	for _, cp := range copies {
		for _, d := range deltas {
			label := cp.label + "/" + d.label

			c := cp.copy(base())
			d.apply(c)
			c.Invalidate()
			checkEngine(t, c, label)
			c.Flows()[0].DemandGbps++
			c.Invalidate()
			checkEngine(t, c, label+"/second pass")

			src := base()
			c = cp.copy(src)
			src.Flows()[1].DemandGbps = 70
			src.Invalidate()
			src.Recompute()
			d.apply(c)
			c.Invalidate()
			checkEngine(t, c, label+"/source routed since")

			src = base()
			mid := cp.copy(src)
			c = cp.copy(mid)
			d.apply(c)
			c.Invalidate()
			checkEngine(t, c, label+"/copy of a copy")
		}
	}
}

// TestWarmCopyFallback pins when a copy's first pass starts warm: only
// while its source has not routed since the copy, over the same
// topology generation and the same flow IDs.
func TestWarmCopyFallback(t *testing.T) {
	cases := []struct {
		label string
		prep  func(src, c *World)
		warm  bool
	}{
		{"fresh copy", func(src, c *World) {}, true},
		{"demand and link changes", func(src, c *World) {
			c.Flows()[0].DemandGbps = 1
			c.Net.MutLink(MakeLinkID("a", "b")).Down = true
		}, true},
		{"source routed since", func(src, c *World) { src.Invalidate(); src.Recompute() }, false},
		{"flow added", func(src, c *World) {
			c.AddFlows(&Flow{ID: "f4", Src: "a", Dst: "c", DemandGbps: 5, Service: "new"})
		}, false},
		{"flow replaced", func(src, c *World) {
			c.RemoveFlowsByService("db")
			c.AddFlows(&Flow{ID: "f5", Src: "c", Dst: "b", DemandGbps: 40, Service: "db"})
		}, false},
		{"topology grown", func(src, c *World) { c.Net.AddLink("a", "d", 100, 1) }, false},
	}
	for _, tc := range cases {
		src, _ := engineWorld()
		src.Recompute()
		c := src.Clone()
		tc.prep(src, c)
		if got := c.engine.warm(c.Net, c.Net.ordTab(), c.Flows()); got != tc.warm {
			t.Errorf("%s: warm = %v, want %v", tc.label, got, tc.warm)
		}
		if c.engine.src != nil {
			t.Errorf("%s: the first pass did not drop its source", tc.label)
		}
	}
	never, _ := engineWorld()
	c := never.Clone()
	if c.engine.warm(c.Net, c.Net.ordTab(), c.Flows()) {
		t.Error("a copy of a world that never routed started warm")
	}
}
