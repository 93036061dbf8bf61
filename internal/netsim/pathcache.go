package netsim

import (
	"maps"
	"sync/atomic"
)

// This file implements the what-if fast path's routing cache: ECMP route
// DAGs are computed once per (topology state, src, dst, filter) and
// reused across the RouteTraffic fixed-point rounds, across risk
// assessment's clone/recompute cycles, and across every clone in a
// lineage (Clone shares the cache pointer).
//
// Soundness does not rely on invalidation signals. Each entry records,
// at compute time, (a) the topology generation, (b) the ordinals of every
// node/link the DAG traverses, and (c) the ordinals of every node/link
// that was unusable. A lookup revalidates against live state: the
// generation must match, every DAG element must still be usable, and
// every then-unusable element must still be unusable. Under those
// conditions the current usable set is a subset of the compute-time one
// that still contains the whole DAG, so the min-hop distance and the
// ECMP path set are provably unchanged and a fresh compute would be
// bit-identical. Because validation reads live structs on every lookup,
// any mutation — fault injection, mitigation, Clock.Advance-driven
// triggers, even direct writes in tests — is picked up with no
// bookkeeping at the mutation site.
//
// A stale entry is not discarded: its recorded down set is the delta log
// the incremental repairer (incremental.go) diffs against the live down
// set to patch the entry's distance field instead of re-running the full
// search.
//
// The cache is intentionally not locked: a Network lineage (a world and
// its what-if clones) is only ever used from one goroutine; the parallel
// harness gives each trial its own world. Network.Fork starts a new
// lineage with a private copy of the cache.

// routeCacheEnabled globally gates the cache so benchmarks and the
// determinism tests can diff cached vs uncached output byte-for-byte.
var routeCacheEnabled atomic.Bool

func init() { routeCacheEnabled.Store(true) }

// SetRouteCacheEnabled toggles the route DAG cache process-wide (the
// -nocache CLI flag and the cache-off determinism tests use it). Toggle
// between runs, not mid-run.
func SetRouteCacheEnabled(on bool) { routeCacheEnabled.Store(on) }

// RouteCacheEnabled reports whether the route DAG cache is active.
func RouteCacheEnabled() bool { return routeCacheEnabled.Load() }

// FilterKeyer is an optional PathSelector refinement: selectors that can
// summarize the routing constraint they would impose on a flow as a
// stable string key unlock the route cache. Two flows mapping to the
// same (src, dst, key) must route identically. Selectors that cannot
// promise this simply don't implement the interface and bypass the
// cache.
type FilterKeyer interface {
	PathSelector
	// FilterKey returns the constraint key for f, and whether the
	// selector's FilterFor(f) semantics are fully captured by it.
	FilterKey(f *Flow) (string, bool)
}

type routeKey struct {
	src, dst NodeID
	filter   string
}

// downSet is the set of unusable elements at DAG compute time, as sorted
// ordinals into the generation's ordinal table. One capture is shared by
// every cache store within a single RouteTraffic pass (the network
// cannot change mid-pass).
type downSet struct {
	nodes []int32
	links []int32
}

type routeEntry struct {
	structVer int
	dag       *RouteDAG // nil = dst unreachable at compute time
	dist      []int32   // full distance-to-dst field (nil = not repairable)
	nodes     []int32   // DAG element ordinals (empty for nil dag)
	links     []int32
	down      *downSet
}

// routeCache holds two entries per key (MRU first) so risk assessment's
// parent/clone alternation — same flows, pre- and post-mitigation
// usable sets — doesn't thrash. It also owns the lineage's dense
// routing scratch (see dagbuild.go).
type routeCache struct {
	entries map[routeKey][2]*routeEntry
	repairs int64 // misses answered by incremental repair, not full BFS
	scratch routeScratch
}

func newRouteCache() *routeCache {
	return &routeCache{entries: make(map[routeKey][2]*routeEntry)}
}

// fork returns a private copy of the cache for an independent lineage
// (Network.Fork): the same entries, shared by pointer because an entry
// is immutable once stored, with fresh scratch.
func (c *routeCache) fork() *routeCache {
	return &routeCache{entries: maps.Clone(c.entries)}
}

func (c *routeCache) store(k routeKey, e *routeEntry) {
	b := c.entries[k]
	b[1] = b[0]
	b[0] = e
	c.entries[k] = b
}

func newRouteEntry(dag *RouteDAG, ver int, dist []int32, down *downSet) *routeEntry {
	e := &routeEntry{structVer: ver, dag: dag, dist: dist, down: down}
	if dag == nil {
		return e
	}
	// The DAG's dense arrays are immutable after construction: share,
	// don't copy. A DAG crosses each link in at most one direction, so
	// dirs enumerates distinct links.
	e.nodes = dag.nodes
	e.links = make([]int32, len(dag.dirs))
	for i, df := range dag.dirs {
		e.links[i] = df.dir >> 1
	}
	return e
}

// captureDown records every currently-unusable node and link as sorted
// ordinals.
func (n *Network) captureDown() *downSet {
	nodePtrs, linkPtrs := n.ptrTables()
	d := &downSet{}
	for i, nd := range nodePtrs {
		if !nd.Usable() {
			d.nodes = append(d.nodes, int32(i))
		}
	}
	for i, l := range linkPtrs {
		if !l.Usable() {
			d.links = append(d.links, int32(i))
		}
	}
	return d
}

// entryValid revalidates a cache entry against live network state; see
// the file comment for the argument that validity implies bit-identical
// recomputation.
func (n *Network) entryValid(e *routeEntry) bool {
	if e.structVer != n.structVer {
		return false
	}
	nodePtrs, linkPtrs := n.ptrTables()
	for _, o := range e.nodes {
		if !nodePtrs[o].Usable() {
			return false
		}
	}
	for _, o := range e.links {
		if !linkPtrs[o].Usable() {
			return false
		}
	}
	for _, o := range e.down.nodes {
		if nodePtrs[o].Usable() {
			return false
		}
	}
	for _, o := range e.down.links {
		if linkPtrs[o].Usable() {
			return false
		}
	}
	return true
}

// cachedRouteDAG routes flow f under sel, serving from the lineage cache
// when the selector is keyable. dc is the lazily-built pass-shared down
// capture. A miss first attempts an incremental repair of the stale
// bucket entries before falling back to the full compute.
func (n *Network) cachedRouteDAG(f *Flow, sel PathSelector, dc **downSet) *RouteDAG {
	key, keyable := "", sel == nil
	if sel != nil {
		if fk, ok := sel.(FilterKeyer); ok {
			key, keyable = fk.FilterKey(f)
		}
	}
	if !keyable || n.rc == nil || !routeCacheEnabled.Load() {
		var filter NodeFilter
		if sel != nil {
			filter = sel.FilterFor(f)
		}
		return RouteDAGFor(n, f.Src, f.Dst, filter)
	}
	rk := routeKey{src: f.Src, dst: f.Dst, filter: key}
	b := n.rc.entries[rk]
	for i, e := range b {
		if e != nil && n.entryValid(e) {
			if i == 1 {
				b[0], b[1] = b[1], b[0]
				n.rc.entries[rk] = b
			}
			return e.dag
		}
	}
	var filter NodeFilter
	if sel != nil {
		filter = sel.FilterFor(f)
	}
	if *dc == nil {
		*dc = n.captureDown()
	}
	dag, dist := n.repairOrRoute(b, f.Src, f.Dst, filter, *dc)
	n.rc.store(rk, newRouteEntry(dag, n.structVer, dist, *dc))
	return dag
}

// RouteFlowDAG routes a single flow under sel through the route cache;
// telemetry probes use it so repeated probing of a stable topology costs
// one DAG computation.
func RouteFlowDAG(n *Network, f *Flow, sel PathSelector) *RouteDAG {
	var dc *downSet
	return n.cachedRouteDAG(f, sel, &dc)
}
