package netsim

import (
	"slices"
	"testing"
)

// lineNet builds a -- b -- c -- d.
func lineNet() *Network {
	n := NewNetwork()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		n.AddNode(Node{ID: id})
	}
	n.AddLink("a", "b", 100, 1)
	n.AddLink("b", "c", 100, 1)
	n.AddLink("c", "d", 100, 1)
	return n
}

// diamondNet builds a -- {b,c} -- d (two equal-cost paths).
func diamondNet() *Network {
	n := NewNetwork()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		n.AddNode(Node{ID: id})
	}
	n.AddLink("a", "b", 100, 1)
	n.AddLink("a", "c", 100, 1)
	n.AddLink("b", "d", 100, 1)
	n.AddLink("c", "d", 100, 1)
	return n
}

// TestRouteDAGFor pins RouteDAGFor's routing behaviour on small
// topologies. Every case also routes twice and requires identical DAGs:
// routing is a pure function of the topology.
func TestRouteDAGFor(t *testing.T) {
	t.Parallel()
	denyAll := func(*Node) bool { return false }
	cases := []struct {
		name     string
		net      func() *Network
		src, dst NodeID
		allow    NodeFilter
		check    func(t *testing.T, n *Network, d *RouteDAG)
	}{
		{name: "line", net: lineNet, src: "a", dst: "d",
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				if d == nil || d.hops() != 3 {
					t.Fatalf("DAG = %+v, want 3 hops", d)
				}
				if got := d.TransitNodes(); !slices.Equal(got, []NodeID{"b", "c"}) {
					t.Fatalf("transit = %v, want [b c]", got)
				}
			}},
		{name: "diamond", net: diamondNet, src: "a", dst: "d",
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				nf := nodeFracs(d)
				if d == nil || d.hops() != 2 || nf["b"] != 0.5 || nf["c"] != 0.5 {
					t.Fatalf("diamond fractions = %v, want b and c at 0.5", nf)
				}
			}},
		{name: "self", net: lineNet, src: "a", dst: "a",
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				nf := nodeFracs(d)
				if d == nil || d.hops() != 0 || len(nf) != 1 || nf["a"] != 1 {
					t.Fatalf("self DAG = %+v, want the trivial DAG", d)
				}
				for dl := range d.Links() {
					t.Fatalf("self DAG crosses %v", dl)
				}
			}},
		{name: "unreachable", src: "a", dst: "d",
			net: func() *Network {
				n := lineNet()
				n.MutLink(MakeLinkID("b", "c")).Down = true
				return n
			},
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				if d != nil {
					t.Fatalf("routed across a down link: %v", nodeFracs(d))
				}
				if RouteDAGFor(n, "a", "b", nil) == nil {
					t.Fatal("a-b should remain reachable")
				}
			}},
		{name: "disconnected", src: "a", dst: "b",
			net: func() *Network {
				n := NewNetwork()
				n.AddNode(Node{ID: "a"})
				n.AddNode(Node{ID: "b"})
				return n
			},
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				if d != nil {
					t.Fatalf("disconnected nodes routed: %v", nodeFracs(d))
				}
			}},
		{name: "down_transit", src: "a", dst: "d",
			net: func() *Network {
				n := diamondNet()
				n.MutNode("b").Healthy = false
				return n
			},
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				nf := nodeFracs(d)
				if _, ok := nf["b"]; ok || nf["c"] != 1 {
					t.Fatalf("fractions = %v, want all of the flow via c", nf)
				}
			}},
		{name: "deny_all_filter", net: lineNet, src: "a", dst: "d", allow: denyAll,
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				// The filter rejects every transit node but spares the
				// endpoints: a->d has no path, adjacent a->b needs none.
				if d != nil {
					t.Fatalf("filter should block transit: %v", nodeFracs(d))
				}
				if d := RouteDAGFor(n, "a", "b", denyAll); d == nil || d.hops() != 1 {
					t.Fatalf("adjacent nodes need no transit: got %+v", d)
				}
			}},
		{name: "clos_cross_pod", src: "r1-host-p0-t0-h0", dst: "r1-host-p1-t0-h0",
			net: func() *Network {
				n := NewNetwork()
				BuildClos(n, DefaultClosConfig("r1"))
				return n
			},
			check: func(t *testing.T, n *Network, d *RouteDAG) {
				if d == nil {
					t.Fatal("no cross-pod route")
				}
				for _, id := range d.TransitNodes() {
					if n.Node(id).Kind == KindSpine {
						return
					}
				}
				t.Fatalf("cross-pod route %v avoids spines", d.TransitNodes())
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.net()
			d := RouteDAGFor(n, tc.src, tc.dst, tc.allow)
			tc.check(t, n, d)
			if err := sameDAG(d, RouteDAGFor(n, tc.src, tc.dst, tc.allow)); err != nil {
				t.Fatalf("repeat route differs: %v", err)
			}
		})
	}
}

func TestClosAllPairsReachable(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	BuildClos(n, DefaultClosConfig("r1"))
	hosts := n.NodesByKind(KindHost)
	if len(hosts) != 4*4*2 {
		t.Fatalf("host count = %d, want 32", len(hosts))
	}
	// Sample pairs (full mesh is slow in -short runs).
	for i := 0; i < len(hosts); i += 5 {
		for j := len(hosts) - 1; j > i; j -= 7 {
			if RouteDAGFor(n, hosts[i].ID, hosts[j].ID, nil) == nil {
				t.Fatalf("%s cannot reach %s", hosts[i].ID, hosts[j].ID)
			}
		}
	}
}

func TestBackboneConnectsRegions(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	bb := BuildBackbone(n, DefaultBackboneConfig())
	if len(bb.WANNames) != 2 {
		t.Fatalf("WANs = %v", bb.WANNames)
	}
	src := NodeID("us-east-host-p0-t0-h0")
	dst := NodeID("eu-north-host-p0-t0-h0")
	if RouteDAGFor(n, src, dst, nil) == nil {
		t.Fatal("cross-region hosts unreachable")
	}
	// Restricting transit to each WAN individually must still connect.
	for _, wan := range bb.WANNames {
		wan := wan
		filter := func(nd *Node) bool {
			return nd.Kind != KindWANRouter || nd.WANName == wan
		}
		if RouteDAGFor(n, src, dst, filter) == nil {
			t.Fatalf("regions unreachable over WAN %s alone", wan)
		}
	}
}
