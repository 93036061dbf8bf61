package netsim

import (
	"fmt"
	"maps"
	"slices"
)

// Network is the device/link graph. It is not safe for concurrent
// mutation; experiments run single-threaded against a simulated clock,
// and the evaluation harnesses clone Networks per trial instead of
// sharing them.
//
// Clone is copy-on-write: the node/link/adjacency maps are shared across
// a clone lineage until someone writes. All mutations of node or link
// state MUST therefore go through MutNode/MutLink (or AddNode/AddLink),
// which materialize private copies of the touched structures; Node/Link
// return read-only views. Immutable identity fields (Node.ID, Node.Kind,
// Node.Region, Node.WANName, Link.ID, Link.A, Link.B, Link.PropDelayMs,
// Link.CapacityGbps) are never rewritten after construction — the routing
// cache and shared route DAGs rely on that.
type Network struct {
	nodes map[NodeID]*Node
	links map[LinkID]*Link
	adj   map[NodeID][]LinkID // sorted for determinism

	// Copy-on-write state. cow is set once the network has ever been
	// cloned; from then on the maps (while shared*) and the pointed-to
	// structs (until recorded in own*) may be shared with other lineage
	// members and must be copied before writing.
	cow         bool
	sharedNodes bool
	sharedLinks bool
	sharedAdj   bool
	ownNodes    map[NodeID]bool
	ownLinks    map[LinkID]bool

	// structVer is the topology generation: bumped by AddNode/AddLink.
	// Route-cache entries are tagged with it so structural growth (which
	// can only happen through those methods) invalidates them wholesale.
	structVer int

	// ords is the dense ordinal table (see ordinal.go): ID-only, keyed by
	// structVer, shared across the clone lineage. nodePtrs/linkPtrs
	// resolve ordinals to this instance's live structs; they are dropped
	// whenever a struct is materialized or the topology grows, since
	// stale pointers would read old state.
	ords     *ordTable
	nodePtrs []*Node
	linkPtrs []*Link

	// rc is the route cache, shared by every member of a clone lineage so
	// what-if clones reuse the parent's DAGs (see pathcache.go).
	rc *routeCache
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		nodes: make(map[NodeID]*Node),
		links: make(map[LinkID]*Link),
		adj:   make(map[NodeID][]LinkID),
		rc:    newRouteCache(),
	}
}

// invalidateDerived drops the pointer-holding caches after any change
// that replaces structs or alters adjacency.
func (n *Network) invalidateDerived() {
	n.nodePtrs = nil
	n.linkPtrs = nil
}

// materializeNodes gives this instance a private nodes map (entries still
// point at possibly-shared structs).
func (n *Network) materializeNodes() {
	if !n.sharedNodes {
		return
	}
	m := make(map[NodeID]*Node, len(n.nodes))
	for k, v := range n.nodes {
		m[k] = v
	}
	n.nodes = m
	n.sharedNodes = false
}

// materializeLinks gives this instance a private links map.
func (n *Network) materializeLinks() {
	if !n.sharedLinks {
		return
	}
	m := make(map[LinkID]*Link, len(n.links))
	for k, v := range n.links {
		m[k] = v
	}
	n.links = m
	n.sharedLinks = false
}

// materializeAdj gives this instance a private adjacency map with private
// slices (AddLink mutates the slices in place).
func (n *Network) materializeAdj() {
	if !n.sharedAdj {
		return
	}
	m := make(map[NodeID][]LinkID, len(n.adj))
	for k, v := range n.adj {
		cp := make([]LinkID, len(v))
		copy(cp, v)
		m[k] = cp
	}
	n.adj = m
	n.sharedAdj = false
}

// AddNode inserts a node. Unset health defaults to healthy. It returns the
// inserted node so builders can tweak attributes. AddNode panics on
// duplicate IDs: topology construction bugs should fail loudly.
func (n *Network) AddNode(node Node) *Node {
	if node.ID == "" {
		panic("netsim: node with empty ID")
	}
	if _, ok := n.nodes[node.ID]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", node.ID))
	}
	if n.cow {
		n.materializeNodes()
		if n.ownNodes == nil {
			n.ownNodes = make(map[NodeID]bool)
		}
		n.ownNodes[node.ID] = true
	}
	node.Healthy = true
	if node.Protocols == nil {
		node.Protocols = make(map[string]bool)
	}
	stored := node
	n.nodes[node.ID] = &stored
	n.structVer++
	n.invalidateDerived()
	return &stored
}

// AddLink inserts an undirected link between existing nodes and returns it.
// The link ID is derived from the endpoints via MakeLinkID.
func (n *Network) AddLink(a, b NodeID, capacityGbps, propDelayMs float64) *Link {
	if _, ok := n.nodes[a]; !ok {
		panic(fmt.Sprintf("netsim: link endpoint %q does not exist", a))
	}
	if _, ok := n.nodes[b]; !ok {
		panic(fmt.Sprintf("netsim: link endpoint %q does not exist", b))
	}
	id := MakeLinkID(a, b)
	if _, ok := n.links[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate link %q", id))
	}
	if n.cow {
		n.materializeLinks()
		n.materializeAdj()
		if n.ownLinks == nil {
			n.ownLinks = make(map[LinkID]bool)
		}
		n.ownLinks[id] = true
	}
	l := &Link{ID: id, A: a, B: b, CapacityGbps: capacityGbps, PropDelayMs: propDelayMs}
	n.links[id] = l
	n.adj[a] = insertSorted(n.adj[a], id)
	n.adj[b] = insertSorted(n.adj[b], id)
	n.structVer++
	n.invalidateDerived()
	return l
}

func insertSorted(ids []LinkID, id LinkID) []LinkID {
	i, _ := slices.BinarySearch(ids, id)
	ids = append(ids, "")
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// Node returns the node with the given ID, or nil if absent. The result
// is a read-only view when the network has been cloned; use MutNode
// before writing.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Link returns the link with the given ID, or nil if absent. The result
// is a read-only view when the network has been cloned; use MutLink
// before writing.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// MutNode returns the node for mutation, materializing a private copy of
// the map and struct when they are shared with a clone lineage. Every
// write of mutable node state (Healthy, Isolated, Protocols) must go
// through it.
func (n *Network) MutNode(id NodeID) *Node {
	nd := n.nodes[id]
	if nd == nil || !n.cow {
		return nd
	}
	if n.ownNodes[id] {
		return nd
	}
	n.materializeNodes()
	cp := nd.clone()
	n.nodes[id] = cp
	if n.ownNodes == nil {
		n.ownNodes = make(map[NodeID]bool)
	}
	n.ownNodes[id] = true
	n.invalidateDerived()
	return cp
}

// MutLink is MutNode for links: it must guard every write of mutable link
// state (Down, Isolated, CorruptRate).
func (n *Network) MutLink(id LinkID) *Link {
	l := n.links[id]
	if l == nil || !n.cow {
		return l
	}
	if n.ownLinks[id] {
		return l
	}
	n.materializeLinks()
	cp := l.clone()
	n.links[id] = cp
	if n.ownLinks == nil {
		n.ownLinks = make(map[LinkID]bool)
	}
	n.ownLinks[id] = true
	n.invalidateDerived()
	return cp
}

// NumNodes reports the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumLinks reports the number of links.
func (n *Network) NumLinks() int { return len(n.links) }

// Nodes returns all nodes sorted by ID. The slice is fresh; the pointed-to
// nodes are live. The sorted order comes straight from the ordinal
// table, so no sort runs after the first build of a topology generation.
func (n *Network) Nodes() []*Node {
	np, _ := n.ptrTables()
	out := make([]*Node, len(np))
	copy(out, np)
	return out
}

// Links returns all links sorted by ID. The slice is fresh; the pointed-to
// links are live.
func (n *Network) Links() []*Link {
	out := make([]*Link, len(n.linksSorted()))
	copy(out, n.linkPtrs)
	return out
}

// linksSorted returns the cached ID-sorted link view (shared; callers
// must not keep or mutate it). It is the ordinal table's link order
// resolved to this instance's live structs.
func (n *Network) linksSorted() []*Link {
	_, lp := n.ptrTables()
	return lp
}

// NodesInRegion returns all nodes in the given region, sorted by ID.
func (n *Network) NodesInRegion(region string) []*Node {
	var out []*Node
	for _, nd := range n.Nodes() {
		if nd.Region == region {
			out = append(out, nd)
		}
	}
	return out
}

// Regions returns the sorted set of region names present in the network.
func (n *Network) Regions() []string {
	seen := make(map[string]bool)
	for _, nd := range n.nodes {
		if nd.Region != "" {
			seen[nd.Region] = true
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

// Share marks n's maps and structs as shared copy-on-write state, as
// Clone does, without making a copy. It writes n only when n is not
// already shared. A template is shared once when it is built; Fork then
// only reads it, so any number of goroutines may fork it at once.
func (n *Network) Share() {
	if n.shared() {
		return
	}
	n.cow = true
	n.sharedNodes, n.sharedLinks, n.sharedAdj = true, true, true
	// Structs this instance privately copied become visible to copies
	// through the shared maps, so ownership resets on both sides.
	n.ownNodes, n.ownLinks = nil, nil
}

// shared reports whether n is in the state Share leaves it in.
func (n *Network) shared() bool {
	return n.cow && n.sharedNodes && n.sharedLinks && n.sharedAdj && n.ownNodes == nil && n.ownLinks == nil
}

// Clone returns a copy-on-write snapshot of the network: the maps and
// structs are shared with this instance (and tagged so either side copies
// before writing), and the route cache is shared outright so what-if
// clones reuse already-computed DAGs. Risk assessment relies on cloning
// to evaluate "what if we applied this mitigation" without touching live
// state.
func (n *Network) Clone() *Network {
	n.Share()
	return n.snapshot(n.rc)
}

// Fork is Clone for an independent lineage: the copy gets a private
// route cache holding the same entries as n's, so it routes exactly as
// n would from here on, and may be used from another goroutine than n's
// other forks. Fork never writes n, so n must already be shared: it
// panics otherwise.
func (n *Network) Fork() *Network {
	if !n.shared() {
		panic("netsim: Fork of a network that is not shared; call Share first")
	}
	return n.snapshot(n.rc.fork())
}

// snapshot is the copy body of Clone and Fork over a shared n. The
// pointer tables are shared too: they are replaced, never written in
// place, when either side materializes a struct.
func (n *Network) snapshot(rc *routeCache) *Network {
	return &Network{
		nodes:       n.nodes,
		links:       n.links,
		adj:         n.adj,
		cow:         true,
		sharedNodes: true,
		sharedLinks: true,
		sharedAdj:   true,
		structVer:   n.structVer,
		ords:        n.ords,
		nodePtrs:    n.nodePtrs,
		linkPtrs:    n.linkPtrs,
		rc:          rc,
	}
}
