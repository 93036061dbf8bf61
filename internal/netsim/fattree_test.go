package netsim

import (
	"fmt"
	"math"
	"testing"
)

// The k-ary fat-tree is a test fixture: the standard world is Clos
// fabrics joined by WANs, and the tests below use the fat-tree for the
// ECMP properties only a many-way equal-cost fabric shows (a 4-way
// spread over cores, full bisection under ECMP, rerouting around a dead
// core).

// FatTreeConfig parameterizes a canonical k-ary fat-tree (Al-Fares et
// al.): k pods, each with k/2 edge and k/2 aggregation switches, and
// (k/2)^2 core switches; every edge switch serves k/2 hosts. All
// switch-to-switch links share one capacity, giving full bisection
// bandwidth under ECMP.
type FatTreeConfig struct {
	Region       string
	K            int     // pod parameter; must be even and >= 2
	LinkGbps     float64 // switch-to-switch capacity
	HostLinkGbps float64
}

// DefaultFatTreeConfig returns a k=4 fat-tree (16 hosts, 20 switches).
func DefaultFatTreeConfig(region string) FatTreeConfig {
	return FatTreeConfig{Region: region, K: 4, LinkGbps: 40, HostLinkGbps: 10}
}

// FatTree records the built layout.
type FatTree struct {
	Cores []NodeID
	Aggs  []NodeID // pod-major order
	Edges []NodeID // pod-major order
	Hosts []NodeID
}

// BuildFatTree adds a k-ary fat-tree to the network and returns its
// layout. Node IDs follow "<region>-ft-core-<i>", "<region>-ft-agg-p<p>-<i>",
// "<region>-ft-edge-p<p>-<i>", "<region>-ft-host-p<p>-e<i>-h<j>".
func BuildFatTree(n *Network, cfg FatTreeConfig) *FatTree {
	if cfg.K < 2 || cfg.K%2 != 0 {
		panic(fmt.Sprintf("netsim: fat-tree k must be even and >= 2, got %d", cfg.K))
	}
	half := cfg.K / 2
	ft := &FatTree{}

	for c := 0; c < half*half; c++ {
		id := NodeID(fmt.Sprintf("%s-ft-core-%d", cfg.Region, c))
		n.AddNode(Node{ID: id, Kind: KindSpine, Region: cfg.Region})
		ft.Cores = append(ft.Cores, id)
	}
	for p := 0; p < cfg.K; p++ {
		var podAggs []NodeID
		for a := 0; a < half; a++ {
			id := NodeID(fmt.Sprintf("%s-ft-agg-p%d-%d", cfg.Region, p, a))
			n.AddNode(Node{ID: id, Kind: KindAgg, Region: cfg.Region})
			podAggs = append(podAggs, id)
			ft.Aggs = append(ft.Aggs, id)
			// Agg a connects to core group [a*half, (a+1)*half).
			for c := a * half; c < (a+1)*half; c++ {
				n.AddLink(id, ft.Cores[c], cfg.LinkGbps, 0.05)
			}
		}
		for e := 0; e < half; e++ {
			eid := NodeID(fmt.Sprintf("%s-ft-edge-p%d-%d", cfg.Region, p, e))
			n.AddNode(Node{ID: eid, Kind: KindToR, Region: cfg.Region})
			ft.Edges = append(ft.Edges, eid)
			for _, aid := range podAggs {
				n.AddLink(eid, aid, cfg.LinkGbps, 0.02)
			}
			for h := 0; h < half; h++ {
				hid := NodeID(fmt.Sprintf("%s-ft-host-p%d-e%d-h%d", cfg.Region, p, e, h))
				n.AddNode(Node{ID: hid, Kind: KindHost, Region: cfg.Region})
				n.AddLink(hid, eid, cfg.HostLinkGbps, 0.01)
				ft.Hosts = append(ft.Hosts, hid)
			}
		}
	}
	return ft
}

// NumHosts returns the host count of a k-ary fat-tree: k^3/4.
func (f *FatTree) NumHosts() int { return len(f.Hosts) }

func TestFatTreeCounts(t *testing.T) {
	t.Parallel()
	for _, k := range []int{2, 4, 6, 8} {
		n := NewNetwork()
		cfg := DefaultFatTreeConfig("r")
		cfg.K = k
		ft := BuildFatTree(n, cfg)
		half := k / 2
		if len(ft.Cores) != half*half {
			t.Errorf("k=%d: cores = %d, want %d", k, len(ft.Cores), half*half)
		}
		if len(ft.Aggs) != k*half || len(ft.Edges) != k*half {
			t.Errorf("k=%d: aggs/edges = %d/%d, want %d", k, len(ft.Aggs), len(ft.Edges), k*half)
		}
		if ft.NumHosts() != k*k*k/4 {
			t.Errorf("k=%d: hosts = %d, want %d", k, ft.NumHosts(), k*k*k/4)
		}
		// Link count: hosts + edge-agg (k pods * half*half) + agg-core
		// (k pods * half * half).
		wantLinks := ft.NumHosts() + k*half*half + k*half*half
		if n.NumLinks() != wantLinks {
			t.Errorf("k=%d: links = %d, want %d", k, n.NumLinks(), wantLinks)
		}
	}
}

func TestFatTreeInvalidK(t *testing.T) {
	t.Parallel()
	for _, k := range []int{0, 1, 3, -2} {
		k := k
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d accepted", k)
				}
			}()
			cfg := DefaultFatTreeConfig("r")
			cfg.K = k
			BuildFatTree(NewNetwork(), cfg)
		}()
	}
}

func TestFatTreeAllPairsReachableWithEqualCost(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	ft := BuildFatTree(n, DefaultFatTreeConfig("r"))
	// Cross-pod pairs have (k/2)^2 equal-cost 6-hop paths in a k=4 tree
	// (host-edge-agg-core-agg-edge-host): 4 paths, within the ECMP cap.
	d := RouteDAGFor(n, ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1], nil)
	if d == nil {
		t.Fatal("cross-pod hosts unreachable")
	}
	if d.hops() != 6 {
		t.Errorf("cross-pod hops = %d, want 6", d.hops())
	}
	// All 4 cores participate (full ECMP spread).
	coresUsed := 0
	for _, id := range d.TransitNodes() {
		if n.Node(id).Kind == KindSpine {
			coresUsed++
		}
	}
	if coresUsed != 4 {
		t.Errorf("cores on DAG = %d, want 4", coresUsed)
	}
	// Same-edge pair: 2 hops via the shared edge switch.
	d2 := RouteDAGFor(n, ft.Hosts[0], ft.Hosts[1], nil)
	if d2 == nil || d2.hops() != 2 {
		t.Fatalf("same-edge DAG = %+v", d2)
	}
}

func TestFatTreeFullBisectionUnderECMP(t *testing.T) {
	t.Parallel()
	// The fat-tree's claim: with every host sending at line rate across
	// pods, ECMP keeps all links at or under capacity (rearrangeably
	// non-blocking; fluid ECMP achieves it for a uniform shift pattern).
	n := NewNetwork()
	cfg := DefaultFatTreeConfig("r")
	ft := BuildFatTree(n, cfg)
	hosts := ft.Hosts
	half := len(hosts) / 2
	var flows []*Flow
	// Pair host i in the first half with host i in the second half, both
	// directions, each at full host line rate.
	for i := 0; i < half; i++ {
		flows = append(flows,
			&Flow{ID: f2id("a", i), Src: hosts[i], Dst: hosts[half+i], DemandGbps: cfg.HostLinkGbps, Service: "bisect"},
			&Flow{ID: f2id("b", i), Src: hosts[half+i], Dst: hosts[i], DemandGbps: cfg.HostLinkGbps, Service: "bisect"},
		)
	}
	rep := RouteTraffic(n, flows, nil)
	if loss := rep.OverallLossRate(); loss > 1e-9 {
		t.Fatalf("bisection traffic lost %.4f%%", loss*100)
	}
	worst := 0.0
	for _, ls := range rep.Links {
		if ls.Utilization > worst {
			worst = ls.Utilization
		}
	}
	if worst > 1+1e-9 {
		t.Fatalf("worst link utilization %v > 1 under bisection load", worst)
	}
	if math.Abs(worst-1) > 0.01 {
		t.Logf("note: worst utilization %.3f (host links saturated)", worst)
	}
}

func f2id(tag string, i int) string {
	return "bisect-" + tag + "-" + string(rune('A'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestFatTreeSurvivesCoreFailure(t *testing.T) {
	t.Parallel()
	n := NewNetwork()
	ft := BuildFatTree(n, DefaultFatTreeConfig("r"))
	n.Node(ft.Cores[0]).Healthy = false
	d := RouteDAGFor(n, ft.Hosts[0], ft.Hosts[len(ft.Hosts)-1], nil)
	if d == nil {
		t.Fatal("core failure partitioned the fat-tree")
	}
	for _, id := range d.TransitNodes() {
		if id == ft.Cores[0] {
			t.Fatal("routing through a dead core")
		}
	}
}
