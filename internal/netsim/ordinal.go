package netsim

import (
	"maps"
	"slices"
)

// This file implements the dense ordinal view of a topology generation:
// every node and link gets a stable small-integer ordinal (its rank in
// the ID-sorted order), and adjacency is stored in CSR form over those
// ordinals. The routing hot path — BFS, DAG construction, the traffic
// slabs — runs entirely on int32 indices into flat arrays instead of
// string-keyed maps.
//
// The table depends only on immutable identity (IDs, endpoints,
// adjacency), so it is keyed by structVer and shared across a whole
// clone lineage: Clone copies the pointer, and the table is rebuilt only
// when AddNode/AddLink grows the topology. Mutable state (health,
// corruption) is never stored here — it is read through the per-instance
// pointer tables below, which resolve each ordinal to this instance's
// live struct.

// ordEdge is one CSR adjacency entry: the neighbor node and connecting
// link, both as ordinals.
type ordEdge struct {
	node int32
	link int32
}

// ordTable is the immutable dense view of one topology generation.
type ordTable struct {
	structVer int
	nodeIDs   []NodeID // ordinal -> ID, sorted ascending
	linkIDs   []LinkID
	nodeOrd   map[NodeID]int32
	linkOrd   map[LinkID]int32

	// CSR adjacency: edges of node u are adjEdges[adjOff[u]:adjOff[u+1]],
	// in sorted-link-ID order (matching the adj map's slices, so
	// traversal order is a function of IDs alone).
	adjOff   []int32
	adjEdges []ordEdge

	// linkA/linkB give each link's endpoints as node ordinals; a flow
	// traversing link l out of node u goes "forward" (A->B) iff
	// linkA[l] == ord(u).
	linkA []int32
	linkB []int32
}

// ordTab returns the lineage-shared ordinal table for the current
// topology generation, building it on first use.
func (n *Network) ordTab() *ordTable {
	if n.ords == nil || n.ords.structVer != n.structVer {
		n.ords = buildOrdTable(n)
	}
	return n.ords
}

func buildOrdTable(n *Network) *ordTable {
	t := &ordTable{
		structVer: n.structVer,
		nodeIDs:   slices.Sorted(maps.Keys(n.nodes)),
		linkIDs:   slices.Sorted(maps.Keys(n.links)),
	}
	t.nodeOrd = make(map[NodeID]int32, len(t.nodeIDs))
	for i, id := range t.nodeIDs {
		t.nodeOrd[id] = int32(i)
	}
	t.linkOrd = make(map[LinkID]int32, len(t.linkIDs))
	for i, id := range t.linkIDs {
		t.linkOrd[id] = int32(i)
	}
	t.linkA = make([]int32, len(t.linkIDs))
	t.linkB = make([]int32, len(t.linkIDs))
	for i, lid := range t.linkIDs {
		l := n.links[lid]
		t.linkA[i] = t.nodeOrd[l.A]
		t.linkB[i] = t.nodeOrd[l.B]
	}
	t.adjOff = make([]int32, len(t.nodeIDs)+1)
	total := 0
	for _, id := range t.nodeIDs {
		total += len(n.adj[id])
	}
	t.adjEdges = make([]ordEdge, 0, total)
	for u, id := range t.nodeIDs {
		t.adjOff[u] = int32(len(t.adjEdges))
		for _, lid := range n.adj[id] { // already sorted by link ID
			lo := t.linkOrd[lid]
			other := t.linkA[lo]
			if other == int32(u) {
				other = t.linkB[lo]
			}
			t.adjEdges = append(t.adjEdges, ordEdge{node: other, link: lo})
		}
	}
	t.adjOff[len(t.nodeIDs)] = int32(len(t.adjEdges))
	return t
}

// ptrTables returns this instance's live struct pointers indexed by
// ordinal. They are rebuilt lazily after any materialization
// (invalidateDerived nils them), so reading mutable state through them
// always observes this lineage member's own view.
func (n *Network) ptrTables() ([]*Node, []*Link) {
	t := n.ordTab()
	if n.nodePtrs == nil || len(n.nodePtrs) != len(t.nodeIDs) {
		n.nodePtrs = make([]*Node, len(t.nodeIDs))
		for i, id := range t.nodeIDs {
			n.nodePtrs[i] = n.nodes[id]
		}
	}
	if n.linkPtrs == nil || len(n.linkPtrs) != len(t.linkIDs) {
		n.linkPtrs = make([]*Link, len(t.linkIDs))
		for i, id := range t.linkIDs {
			n.linkPtrs[i] = n.links[id]
		}
	}
	return n.nodePtrs, n.linkPtrs
}
