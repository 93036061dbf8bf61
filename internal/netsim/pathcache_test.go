package netsim

import (
	"fmt"
	"slices"
	"testing"
)

// These tests pin the route cache's soundness story: entries revalidate
// against live network state on every lookup, so any mutation — COW
// writes, structural growth, controller rerouting, even direct struct
// writes that bypass MutNode/MutLink — yields fresh paths, never stale
// ones.

func cacheFlow() *Flow {
	return &Flow{ID: "f", Src: "a", Dst: "d", DemandGbps: 1, Service: "web"}
}

func dagUses(d *RouteDAG, id NodeID) bool {
	_, ok := nodeFracs(d)[id]
	return ok
}

func wantStats(t *testing.T, n *Network, hits, misses int64) {
	t.Helper()
	h, m := n.RouteCacheStats()
	if h != hits || m != misses {
		t.Fatalf("cache stats = %d hits / %d misses, want %d / %d", h, m, hits, misses)
	}
}

func TestRouteCacheHitOnRepeat(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := diamondNet()
	f := cacheFlow()
	d1 := RouteFlowDAG(n, f, nil)
	d2 := RouteFlowDAG(n, f, nil)
	if d1 == nil || d1 != d2 {
		t.Fatalf("repeat lookup returned a different DAG (%p vs %p)", d1, d2)
	}
	wantStats(t, n, 1, 1)
}

func TestRouteCacheFreshAfterFault(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := diamondNet()
	f := cacheFlow()
	if d := RouteFlowDAG(n, f, nil); !dagUses(d, "b") || !dagUses(d, "c") {
		t.Fatalf("baseline DAG should ECMP over b and c, got %v", nodeFracs(d))
	}

	// Fault the a-b link the way the fault layer does (COW write): the
	// cached entry must fail revalidation and the reroute avoid b.
	n.MutLink(MakeLinkID("a", "b")).Down = true
	d := RouteFlowDAG(n, f, nil)
	if dagUses(d, "b") || !dagUses(d, "c") {
		t.Fatalf("post-fault DAG should avoid b, got %v", nodeFracs(d))
	}
	wantStats(t, n, 0, 2)

	// Revert. The pre-fault entry is still in the two-entry bucket and is
	// valid again (its down-set is empty and all its elements are back),
	// so this is a hit — the parent/clone alternation risk assessment
	// depends on.
	n.MutLink(MakeLinkID("a", "b")).Down = false
	if d := RouteFlowDAG(n, f, nil); !dagUses(d, "b") || !dagUses(d, "c") {
		t.Fatalf("post-revert DAG should ECMP again, got %v", nodeFracs(d))
	}
	wantStats(t, n, 1, 2)

	// The faulted-state entry also survived in the bucket: re-faulting
	// serves it without recomputing.
	n.MutLink(MakeLinkID("a", "b")).Down = true
	if d := RouteFlowDAG(n, f, nil); dagUses(d, "b") {
		t.Fatal("re-fault served a DAG through the down link")
	}
	wantStats(t, n, 2, 2)
}

func TestRouteCacheFreshAfterDirectWrite(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := diamondNet()
	f := cacheFlow()
	RouteFlowDAG(n, f, nil)

	// A direct struct write — no MutNode, no generation bump, the way
	// tests poke at topologies. Revalidation reads live structs, so the
	// stale DAG through b must not be served.
	n.Node("b").Healthy = false
	if d := RouteFlowDAG(n, f, nil); dagUses(d, "b") {
		t.Fatal("cache served a path through an unhealthy node after a direct write")
	}
}

func TestRouteCacheUnreachableThenRepaired(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := lineNet()
	f := cacheFlow()
	n.MutNode("b").Healthy = false
	if d := RouteFlowDAG(n, f, nil); d != nil {
		t.Fatalf("expected unreachable, got %v", nodeFracs(d))
	}
	// The nil entry stays valid while b stays down...
	if d := RouteFlowDAG(n, f, nil); d != nil {
		t.Fatal("cached unreachability disagreed with fresh compute")
	}
	wantStats(t, n, 1, 1)
	// ...and is dropped the moment b recovers.
	n.MutNode("b").Healthy = true
	if d := RouteFlowDAG(n, f, nil); d == nil {
		t.Fatal("cache kept serving unreachable after the repair")
	}
}

func TestRouteCacheCloneIsolation(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := diamondNet()
	f := cacheFlow()
	RouteFlowDAG(n, f, nil)

	// What-if mutation on a clone: the clone routes around the fault, the
	// parent keeps serving its cached ECMP DAG (the shared cache's
	// revalidation sees each network's own live state).
	c := n.Clone()
	c.MutLink(MakeLinkID("a", "c")).Down = true
	if d := RouteFlowDAG(c, f, nil); dagUses(d, "c") || !dagUses(d, "b") {
		t.Fatalf("clone DAG should avoid c, got %v", nodeFracs(d))
	}
	h0, _ := n.RouteCacheStats()
	if d := RouteFlowDAG(n, f, nil); !dagUses(d, "b") || !dagUses(d, "c") {
		t.Fatalf("parent DAG changed after clone mutation: %v", nodeFracs(d))
	}
	if h1, _ := n.RouteCacheStats(); h1 != h0+1 {
		t.Fatal("parent lookup after clone mutation should still hit")
	}

	// Structural growth on the clone bumps its generation: a shortcut
	// link yields a one-hop route there, while the parent is untouched.
	c2 := n.Clone()
	c2.AddLink("a", "d", 100, 1)
	if d := RouteFlowDAG(c2, f, nil); d == nil || dagUses(d, "b") || dagUses(d, "c") {
		t.Fatalf("clone with shortcut should route a-d directly, got %+v", d)
	}
	if d := RouteFlowDAG(n, f, nil); !dagUses(d, "b") || !dagUses(d, "c") {
		t.Fatal("parent saw the clone's structural change")
	}
}

func TestRouteCacheControllerReroute(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := NewNetwork()
	n.AddNode(Node{ID: "a"})
	n.AddNode(Node{ID: "d"})
	n.AddNode(Node{ID: "w4", Kind: KindWANRouter, WANName: "B4"})
	n.AddNode(Node{ID: "w2", Kind: KindWANRouter, WANName: "B2"})
	for _, w := range []NodeID{"w4", "w2"} {
		n.AddLink("a", w, 100, 1)
		n.AddLink(w, "d", 100, 1)
	}
	ctl := NewController("a", []string{"B4", "B2"})
	f := cacheFlow()

	if d := RouteFlowDAG(n, f, ctl); !dagUses(d, "w4") || dagUses(d, "w2") {
		t.Fatalf("preferred-WAN DAG should transit w4, got %v", nodeFracs(d))
	}

	// The buggy inconsistency check declares B4 failed; AssignWAN flips
	// to B2, which changes the cache key — no stale B4 path can be
	// served even though the topology never changed.
	ctl.Announce(PrefixAnnouncement{Prefix: "10.0.0.0/8", WAN: "B4", Cluster: "us-east"})
	ctl.Announce(PrefixAnnouncement{Prefix: "10.0.0.0/8", WAN: "B4", Cluster: "eu-north"})
	ctl.Evaluate()
	if !slices.Contains(ctl.FailedWANs(), "B4") {
		t.Fatal("setup: B4 should be believed failed")
	}
	if d := RouteFlowDAG(n, f, ctl); !dagUses(d, "w2") || dagUses(d, "w4") {
		t.Fatalf("post-failover DAG should transit w2, got %v", nodeFracs(d))
	}

	// Operator override restores B4; the original entry is still cached
	// under the B4 key and serves as a hit.
	ctl.Override("B4", true)
	ctl.Evaluate()
	h0, _ := n.RouteCacheStats()
	if d := RouteFlowDAG(n, f, ctl); !dagUses(d, "w4") {
		t.Fatalf("post-override DAG should transit w4 again, got %v", nodeFracs(d))
	}
	if h1, _ := n.RouteCacheStats(); h1 != h0+1 {
		t.Fatal("restored WAN assignment should hit the original cache entry")
	}
}

// reportSummary flattens a TrafficReport into a deterministic string form
// for byte-level comparison (maps print in random order otherwise).
func reportSummary(r *TrafficReport) []string {
	var out []string
	out = append(out, fmt.Sprintf("demand=%v delivered=%v", r.TotalDemand, r.TotalDelivered))
	for _, fs := range r.FlowStats {
		out = append(out, fmt.Sprintf("flow %s routed=%v loss=%v lat=%v",
			fs.Flow.ID, fs.Routed, fs.LossRate, fs.LatencyMs))
	}
	for _, ls := range r.Links {
		out = append(out, fmt.Sprintf("link %s %+v", ls.Link, ls))
	}
	return out
}

func TestRouteCacheMatchesUncachedRouting(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := diamondNet()
	flows := []*Flow{
		{ID: "f1", Src: "a", Dst: "d", DemandGbps: 60, Service: "web"},
		{ID: "f2", Src: "d", Dst: "a", DemandGbps: 40, Service: "db"},
	}
	cached := fmt.Sprintf("%+v", reportSummary(RouteTraffic(n, flows, nil)))
	fresh := fmt.Sprintf("%+v", reportSummary(RouteTraffic(diamondNet(), flows, nil)))
	if cached != fresh {
		t.Fatalf("cached routing diverged from fresh routing:\n%s\nvs\n%s", cached, fresh)
	}
}

func TestRouteCacheForkIsPrivate(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := diamondNet()
	f := cacheFlow()
	RouteFlowDAG(n, f, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Fork of an unshared network should panic, not write it")
			}
		}()
		n.Fork()
	}()
	n.Share()

	// The fork starts warm, with the parent's counters, and counts on
	// its own from there.
	c := n.Fork()
	if h, m := c.RouteCacheStats(); h != 0 || m != 1 {
		t.Fatalf("fork counters %d/%d, want the parent's 0/1", h, m)
	}
	RouteFlowDAG(c, f, nil)
	if h, m := c.RouteCacheStats(); h != 1 || m != 1 {
		t.Fatalf("fork lookup should hit the copied entry, counters %d/%d", h, m)
	}
	c.MutLink(MakeLinkID("a", "c")).Down = true
	if d := RouteFlowDAG(c, f, nil); dagUses(d, "c") {
		t.Fatalf("fork DAG should avoid c, got %v", nodeFracs(d))
	}
	if h, m := n.RouteCacheStats(); h != 0 || m != 1 {
		t.Fatalf("fork lookups moved the parent's counters to %d/%d", h, m)
	}
	if d := RouteFlowDAG(n, f, nil); !dagUses(d, "b") || !dagUses(d, "c") {
		t.Fatalf("parent DAG changed after fork mutation: %v", nodeFracs(d))
	}
}
