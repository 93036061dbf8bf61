package netsim

import (
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Properties of the ECMP routing DAG: per-hop flow conservation, source
// fraction 1, destination fraction 1, and agreement between link
// fractions and node fractions.

// nodeFracs collects a DAG's per-node fractions keyed by ID, for
// assertions and failure messages; a nil DAG collects to nil.
func nodeFracs(d *RouteDAG) map[NodeID]float64 {
	if d == nil {
		return nil
	}
	return maps.Collect(d.Nodes())
}

func dagWorldNet() *Network {
	n := NewNetwork()
	BuildBackbone(n, DefaultBackboneConfig())
	return n
}

func TestRouteDAGConservationProperty(t *testing.T) {
	t.Parallel()
	n := dagWorldNet()
	hosts := n.NodesByKind(KindHost)
	check := func(i, j uint16) bool {
		src := hosts[int(i)%len(hosts)].ID
		dst := hosts[int(j)%len(hosts)].ID
		if src == dst {
			return true
		}
		d := RouteDAGFor(n, src, dst, nil)
		if d == nil {
			return false // backbone is fully connected
		}
		nf := nodeFracs(d)
		if math.Abs(nf[src]-1) > 1e-9 {
			return false
		}
		if math.Abs(nf[dst]-1) > 1e-9 {
			return false
		}
		// Flow into each node equals its fraction: sum of incoming link
		// fractions (directed toward the node).
		inflow := map[NodeID]float64{}
		for dl, frac := range d.Links() {
			l := n.Link(dl.Link)
			to := l.B
			if !dl.Forward {
				to = l.A
			}
			inflow[to] += frac
		}
		for id, f := range d.Nodes() {
			if id == src {
				continue
			}
			if math.Abs(inflow[id]-f) > 1e-9 {
				return false
			}
		}
		// Total outflow from src is 1.
		var out float64
		for dl, frac := range d.Links() {
			l := n.Link(dl.Link)
			from := l.A
			if !dl.Forward {
				from = l.B
			}
			if from == src {
				out += frac
			}
		}
		return math.Abs(out-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteDAGSelf(t *testing.T) {
	t.Parallel()
	n := dagWorldNet()
	d := RouteDAGFor(n, "us-east-spine-0", "us-east-spine-0", nil)
	if d == nil || d.Hops != 0 || len(d.TransitNodes()) != 0 {
		t.Fatalf("self DAG = %+v", d)
	}
}

func TestRouteDAGTransitNodesExcludeEndpoints(t *testing.T) {
	t.Parallel()
	n := dagWorldNet()
	d := RouteDAGFor(n, "us-east-host-p0-t0-h0", "us-west-host-p0-t0-h0", nil)
	if d == nil {
		t.Fatal("no DAG")
	}
	nf := nodeFracs(d)
	for _, id := range d.TransitNodes() {
		if id == d.Src || id == d.Dst {
			t.Fatalf("endpoint %s in transit set", id)
		}
		if nf[id] <= 0 {
			t.Fatalf("transit node %s with zero fraction", id)
		}
	}
}

// Clone equivalence: a cloned world recomputes to the same traffic
// report as the original, for arbitrary injected faults.
func TestCloneRecomputeEquivalenceProperty(t *testing.T) {
	t.Parallel()
	check := func(seed int64, pick uint8) bool {
		n := NewNetwork()
		bb := BuildBackbone(n, DefaultBackboneConfig())
		ctl := NewController("ctl", []string{"B4", "B2"})
		w := NewWorld(n, ctl, bb)
		for i, region := range bb.Regions {
			for _, wan := range bb.WANNames {
				ctl.Announce(PrefixAnnouncement{Prefix: regionPrefix(i), WAN: wan, Cluster: region})
			}
		}
		var eps []NodeID
		for _, region := range bb.Regions {
			eps = append(eps, NodeID(region+"-spine-0"))
		}
		w.AddFlows(UniformMeshFlows(eps, 300, "bulk")...)

		links := w.Net.Links()
		rng := rand.New(rand.NewSource(seed))
		switch pick % 4 {
		case 0:
			w.Inject(&LinkDownFault{Link: links[rng.Intn(len(links))].ID})
		case 1:
			w.Inject(&DeviceDownFault{Node: eps[rng.Intn(len(eps))]})
		case 2:
			w.Inject(&ConfigInconsistencyFault{WAN: "B4", Prefix: regionPrefix(0), Clusters: []string{"us-west", "eu-north"}})
		case 3:
			w.Inject(&TrafficSurgeFault{Service: "bulk", Factor: 2})
		}
		a := w.Recompute()
		b := w.Clone().Recompute()
		if math.Abs(a.OverallLossRate()-b.OverallLossRate()) > 1e-12 {
			return false
		}
		if len(a.LinkStats) != len(b.LinkStats) {
			return false
		}
		for lid, ls := range a.LinkStats {
			if math.Abs(ls.Utilization-b.LinkStats[lid].Utilization) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeLossOverDAGBounds(t *testing.T) {
	t.Parallel()
	n := lineNet()
	flows := []*Flow{{ID: "f", Src: "a", Dst: "d", DemandGbps: 200, Service: "p"}}
	rep := RouteTraffic(n, flows, nil)
	dag := RouteDAGFor(n, "a", "d", nil)
	loss := ProbeLossOverDAG(dag, rep)
	if loss <= 0 || loss > 1 {
		t.Fatalf("probe loss = %v", loss)
	}
	// Probe loss over a lossless report is zero.
	flows[0].DemandGbps = 10
	rep = RouteTraffic(n, flows, nil)
	if got := ProbeLossOverDAG(dag, rep); got != 0 {
		t.Fatalf("lossless probe loss = %v", got)
	}
}

// A report from an older topology generation than the probe DAG takes
// the fallback path, which resolves loss through the report's link map.
// Growth off the path changes no loss, so the fallback must equal, bit
// for bit, the fast path against a report recomputed after the growth.
func TestProbeLossOverDAGGenerationFallback(t *testing.T) {
	t.Parallel()
	n := lineNet()
	n.MutLink(MakeLinkID("b", "c")).CorruptRate = 0.01
	flows := []*Flow{
		{ID: "fwd", Src: "a", Dst: "d", DemandGbps: 200, Service: "p"},
		{ID: "rev", Src: "d", Dst: "a", DemandGbps: 150, Service: "p"},
	}
	stale := RouteTraffic(n, flows, nil)

	n.AddNode(Node{ID: "stub"})
	n.AddLink("b", "stub", 100, 1)
	fresh := RouteTraffic(n, flows, nil)
	for _, pair := range [][2]NodeID{{"a", "d"}, {"d", "a"}} {
		dag := RouteDAGFor(n, pair[0], pair[1], nil)
		if dag.ot == stale.ot || dag.ot != fresh.ot {
			t.Fatal("growth did not move the probe DAG to a new ordinal table")
		}
		got, want := ProbeLossOverDAG(dag, stale), ProbeLossOverDAG(dag, fresh)
		if want <= 0 || got != want {
			t.Fatalf("%s->%s: fallback loss = %v, fast path = %v", pair[0], pair[1], got, want)
		}
	}
}
