package netsim

import (
	"fmt"
	"maps"
	"testing"
)

// These tests pin the incremental shortest-path maintenance contract:
// a repaired cache entry must be indistinguishable — DAG and distance
// field both bit-identical — from a full from-scratch compute, under any
// sequence of fault/repair/filter deltas. RouteDAGFor bypasses the cache
// entirely, so it serves as the oracle throughout.

// fuzzSel is a keyable selector with a fixed key->filter mapping, as the
// FilterKeyer contract requires.
type fuzzSel struct {
	key  string
	filt NodeFilter
}

func (s fuzzSel) FilterFor(f *Flow) NodeFilter     { return s.filt }
func (s fuzzSel) FilterKey(f *Flow) (string, bool) { return s.key, true }

// incrTopology is a 12-node ring with chords and a hub: enough ECMP
// diversity that single-element deltas reroute rather than disconnect.
func incrTopology() *Network {
	n := NewNetwork()
	const ring = 12
	for i := 0; i < ring; i++ {
		n.AddNode(Node{ID: NodeID(fmt.Sprintf("r%02d", i))})
	}
	n.AddNode(Node{ID: "hub"})
	id := func(i int) NodeID { return NodeID(fmt.Sprintf("r%02d", i%ring)) }
	for i := 0; i < ring; i++ {
		n.AddLink(id(i), id(i+1), 100, 1)
	}
	for i := 0; i < ring; i += 2 {
		n.AddLink(id(i), id(i+3), 100, 1)
	}
	for _, i := range []int{0, 4, 8} {
		n.AddLink("hub", id(i), 100, 1)
	}
	return n
}

// incrSelectors maps each selector key the differential tests use to its
// fixed filter; index 0 is the unconstrained case.
func incrSelectors() []PathSelector {
	noHub := func(nd *Node) bool { return nd.ID != "hub" }
	noOdd := func(nd *Node) bool {
		b := nd.ID[len(nd.ID)-1]
		return (b-'0')%2 == 0
	}
	return []PathSelector{
		nil,
		fuzzSel{key: "nohub", filt: noHub},
		fuzzSel{key: "noodd", filt: noOdd},
	}
}

var incrPairs = [][2]NodeID{
	{"r00", "r06"},
	{"r01", "r07"},
	{"hub", "r05"},
	{"r10", "r03"},
	{"r02", "r02"}, // trivial src == dst
}

func sameDAG(a, b *RouteDAG) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("nil mismatch: %v vs %v", a == nil, b == nil)
	}
	if a == nil {
		return nil
	}
	if a.Hops != b.Hops {
		return fmt.Errorf("hops %d vs %d", a.Hops, b.Hops)
	}
	if na, nb := nodeFracs(a), nodeFracs(b); !maps.Equal(na, nb) {
		return fmt.Errorf("node fractions %v vs %v", na, nb)
	}
	if la, lb := maps.Collect(a.Links()), maps.Collect(b.Links()); !maps.Equal(la, lb) {
		return fmt.Errorf("link fractions %v vs %v", la, lb)
	}
	return nil
}

// checkPair routes one (src,dst,selector) through the cache (repair
// path) and against the full-compute oracle, comparing the DAG and, when
// this lookup stored a new entry (a miss), its distance field
// against a fresh BFS. A hit's stored dist intentionally reflects the
// entry's own down-set snapshot, not the live topology, so it is only
// comparable right after a store.
func checkPair(t *testing.T, n *Network, src, dst NodeID, sel PathSelector) {
	t.Helper()
	fl := &Flow{ID: "probe", Src: src, Dst: dst, DemandGbps: 1}
	key := ""
	if fk, ok := sel.(FilterKeyer); ok {
		key, _ = fk.FilterKey(fl)
	}
	rk := routeKey{src: src, dst: dst, filter: key}
	before := n.rc.entries[rk]
	got := RouteFlowDAG(n, fl, sel)
	var filter NodeFilter
	if sel != nil {
		filter = sel.FilterFor(fl)
	}
	want, wantDist := routeDAGDense(n, src, dst, filter)
	if err := sameDAG(got, want); err != nil {
		t.Fatalf("%s->%s: cached/repaired DAG diverged from oracle: %v", src, dst, err)
	}
	b := n.rc.entries[rk]
	if b[0] == before[0] || b[0] == before[1] {
		return // hit: no fresh store to audit
	}
	gotDist := b[0].dist
	if (gotDist == nil) != (wantDist == nil) {
		t.Fatalf("%s->%s: stored dist nil=%v, oracle nil=%v", src, dst, gotDist == nil, wantDist == nil)
	}
	for i := range gotDist {
		if gotDist[i] != wantDist[i] {
			t.Fatalf("%s->%s: dist[%d] (%s) = %d, oracle %d",
				src, dst, i, n.ordTab().nodeIDs[i], gotDist[i], wantDist[i])
		}
	}
}

func checkAll(t *testing.T, n *Network, sels []PathSelector) {
	t.Helper()
	for _, sel := range sels {
		for _, p := range incrPairs {
			checkPair(t, n, p[0], p[1], sel)
		}
	}
}

func TestIncrementalRepairMatchesFullCompute(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := incrTopology()
	sels := incrSelectors()
	checkAll(t, n, sels) // populate entries

	steps := []func(){
		func() { n.MutLink(MakeLinkID("r00", "r01")).Down = true },
		func() { n.MutLink(MakeLinkID("r00", "r03")).Down = true },
		func() { n.MutLink(MakeLinkID("r00", "r01")).Down = false },
		func() { n.MutNode("r06").Healthy = false },
		func() { n.MutNode("r06").Healthy = true },
		func() { n.MutLink(MakeLinkID("hub", "r04")).Down = true },
		func() { n.MutNode("r05").Healthy = false },
		func() { n.MutLink(MakeLinkID("r00", "r03")).Down = false },
		func() { n.MutNode("r05").Healthy = true },
		func() { n.MutLink(MakeLinkID("hub", "r04")).Down = false },
	}
	for i, step := range steps {
		step()
		checkAll(t, n, sels)
		if t.Failed() {
			t.Fatalf("diverged after step %d", i)
		}
	}
	if n.rc.repairs == 0 {
		t.Fatal("no miss was answered by incremental repair; the fast path never ran")
	}
}

func TestIncrementalRepairLargeDeltaFallsBack(t *testing.T) {
	if !RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	n := incrTopology()
	checkAll(t, n, []PathSelector{nil})
	// A delta larger than maxRepairDelta must fall back to the full
	// compute and still be exact.
	for i := 0; i < 10; i++ {
		n.MutLink(MakeLinkID(NodeID(fmt.Sprintf("r%02d", i)), NodeID(fmt.Sprintf("r%02d", (i+1)%12)))).Down = true
	}
	repairsBefore := n.rc.repairs
	checkAll(t, n, []PathSelector{nil})
	if n.rc.repairs != repairsBefore {
		t.Fatalf("delta of 10 elements should not be repaired (maxRepairDelta=%d)", maxRepairDelta)
	}
}

// FuzzIncrementalRouting drives random fault/repair/filter delta
// sequences and requires the incrementally maintained DAGs (and stored
// distance fields) to be bit-identical to from-scratch computes.
func FuzzIncrementalRouting(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x10, 0x01, 0x10})                                           // fault, query, repair
	f.Add([]byte{0x13, 0x25, 0x13, 0x42})                                     // link flap + node fault
	f.Add([]byte{0x30, 0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39}) // mass outage
	f.Add([]byte{0x10, 0x50, 0x10, 0x51, 0x25, 0x10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if !RouteCacheEnabled() {
			t.Skip("route cache disabled")
		}
		n := incrTopology()
		sels := incrSelectors()
		ot := n.ordTab()
		sel := sels[0]
		checkAllF(t, n, sel)
		for _, op := range ops {
			arg := int(op >> 3)
			switch op & 0x7 {
			case 0, 1: // toggle a link
				lid := ot.linkIDs[arg%len(ot.linkIDs)]
				l := n.MutLink(lid)
				l.Down = !l.Down
			case 2: // toggle a node
				nid := ot.nodeIDs[arg%len(ot.nodeIDs)]
				nd := n.MutNode(nid)
				nd.Healthy = !nd.Healthy
			case 3: // corruption delta: loss-only, must not disturb routing
				lid := ot.linkIDs[arg%len(ot.linkIDs)]
				l := n.MutLink(lid)
				if l.CorruptRate == 0 {
					l.CorruptRate = 0.25
				} else {
					l.CorruptRate = 0
				}
			case 4: // switch the active selector (filter delta)
				sel = sels[arg%len(sels)]
			}
			checkAllF(t, n, sel)
			if t.Failed() {
				return
			}
		}
	})
}

// checkAllF is checkAll for one selector, usable from the fuzz body.
func checkAllF(t *testing.T, n *Network, sel PathSelector) {
	t.Helper()
	for _, p := range incrPairs {
		checkPair(t, n, p[0], p[1], sel)
	}
}
