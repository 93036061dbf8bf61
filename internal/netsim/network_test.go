package netsim

import (
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	t.Parallel()
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(5 * time.Minute)
	c.Advance(30 * time.Second)
	if got, want := c.Now(), 5*time.Minute+30*time.Second; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-time.Second)
}

func TestMakeLinkIDCanonical(t *testing.T) {
	t.Parallel()
	if MakeLinkID("a", "b") != MakeLinkID("b", "a") {
		t.Fatal("link ID not canonical under endpoint order")
	}
	if MakeLinkID("a", "b") == MakeLinkID("a", "c") {
		t.Fatal("distinct links share an ID")
	}
}

func TestAddNodeDefaults(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	nd := n.AddNode(Node{ID: "sw1", Kind: KindToR, Region: "r1"})
	if !nd.Healthy {
		t.Error("new node not healthy by default")
	}
	if nd.Protocols == nil {
		t.Error("protocol map not initialized")
	}
	if !nd.Usable() {
		t.Error("healthy non-isolated node should be usable")
	}
	nd.Isolated = true
	if nd.Usable() {
		t.Error("isolated node should not be usable")
	}
}

func TestAddNodeDuplicatePanics(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	n.AddNode(Node{ID: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	n.AddNode(Node{ID: "x"})
}

func TestAddLinkValidation(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	n.AddNode(Node{ID: "a"})
	n.AddNode(Node{ID: "b"})
	l := n.AddLink("a", "b", 100, 1)
	if l.ID != MakeLinkID("a", "b") {
		t.Errorf("link ID = %q", l.ID)
	}
	if n.Link(MakeLinkID("b", "a")) != l {
		t.Error("link ID not symmetric")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("link to missing node did not panic")
		}
	}()
	n.AddLink("a", "zzz", 1, 1)
}

func TestNetworkQueries(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	n.AddNode(Node{ID: "t1", Kind: KindToR, Region: "east"})
	n.AddNode(Node{ID: "t2", Kind: KindToR, Region: "west"})
	n.AddNode(Node{ID: "s1", Kind: KindSpine, Region: "east"})
	n.AddLink("t1", "s1", 100, 1)
	n.AddLink("t2", "s1", 100, 1)

	if got := len(n.NodesByKind(KindToR)); got != 2 {
		t.Errorf("NodesByKind(ToR) = %d, want 2", got)
	}
	if got := len(n.NodesInRegion("east")); got != 2 {
		t.Errorf("NodesInRegion(east) = %d, want 2", got)
	}
	regions := n.Regions()
	if len(regions) != 2 || regions[0] != "east" || regions[1] != "west" {
		t.Errorf("Regions() = %v", regions)
	}
	if n.NumNodes() != 3 || n.NumLinks() != 2 {
		t.Errorf("counts = %d/%d, want 3/2", n.NumNodes(), n.NumLinks())
	}
}

func TestCloneIsDeep(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	n.AddNode(Node{ID: "a"})
	n.AddNode(Node{ID: "b"})
	n.AddLink("a", "b", 100, 1)
	n.Node("a").Protocols["bgp"] = true

	c := n.Clone()
	c.MutNode("a").Healthy = false
	c.MutNode("a").Protocols["bgp"] = false
	c.MutLink(MakeLinkID("a", "b")).Down = true

	if !n.Node("a").Healthy {
		t.Error("clone mutation leaked into original node health")
	}
	if !n.Node("a").Protocols["bgp"] {
		t.Error("clone mutation leaked into original protocols map")
	}
	if n.Link(MakeLinkID("a", "b")).Down {
		t.Error("clone mutation leaked into original link")
	}

	// And the reverse direction: parent writes must not leak into the
	// clone (Clone marks both sides copy-on-write).
	n.MutNode("b").Isolated = true
	if c.Node("b").Isolated {
		t.Error("parent mutation leaked into clone")
	}

	// Structural growth on the clone stays private too.
	c.AddNode(Node{ID: "z"})
	c.AddLink("a", "z", 10, 1)
	if n.Node("z") != nil || n.Link(MakeLinkID("a", "z")) != nil {
		t.Error("clone topology growth leaked into original")
	}
}

func TestNodesSortedDeterministically(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	for _, id := range []NodeID{"z", "m", "a", "q"} {
		n.AddNode(Node{ID: id})
	}
	nodes := n.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].ID >= nodes[i].ID {
			t.Fatalf("Nodes() not sorted: %v before %v", nodes[i-1].ID, nodes[i].ID)
		}
	}
}

func TestNodeKindString(t *testing.T) {
	t.Parallel()
	cases := map[NodeKind]string{
		KindHost: "host", KindToR: "tor", KindAgg: "agg", KindSpine: "spine",
		KindGateway: "gateway", KindWANRouter: "wan-router", KindController: "controller",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if NodeKind(99).String() == "" {
		t.Error("unknown kind should still stringify")
	}
}
