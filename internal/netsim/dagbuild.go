package netsim

import "slices"

// This file is the dense routing kernel: BFS over the ordinal CSR and
// DAG materialization from a distance field. Both run on reusable
// scratch owned by the lineage's route cache, so a warm compute
// allocates only the result arrays.

// routeScratch holds the reusable working arrays for dense routing and
// incremental repair. It lives on the lineage-shared routeCache; netsim
// is single-goroutine per lineage (clones get their own Network values),
// matching the existing cache contract.
type routeScratch struct {
	dist   []int32   // BFS distance to dst per node ordinal, -1 unreachable
	frac   []float64 // per-ordinal transit fraction during DAG build (kept zeroed)
	dagIdx []int32   // node ordinal -> index in the DAG nodes slice
	queue  []int32   // BFS queue
	level  []int32   // current DAG level (node ordinals)
	next   []int32   // next DAG level

	nodesStage []int32   // DAG nodes in level order, staged
	offStage   []int32   // successor CSR offsets, staged
	succStage  []dagEdge // successor CSR entries, staged (ordinal node ids)
	dirOrd     []int32   // directed links touched by the DAG, first-touch order
	dirFrac    []float64 // per-directed-link fraction accumulator (kept zeroed)

	// incremental-repair state (see incremental.go)
	remNodes []int32 // newly-down node ordinals vs a cache entry
	insNodes []int32 // newly-up node ordinals
	remLinks []int32
	insLinks []int32
	orphans  []int32
	nodeMark []int32 // epoch marks for suspect dedupe
	markGen  int32
	buckets  bucketQueue
}

func (s *routeScratch) ensure(v, l int) {
	if len(s.dist) < v {
		s.dist = make([]int32, v)
		s.frac = make([]float64, v)
		s.dagIdx = make([]int32, v)
		s.nodeMark = make([]int32, v)
	}
	if len(s.dirFrac) < 2*l {
		s.dirFrac = make([]float64, 2*l)
	}
}

// scratch returns the lineage's routing scratch, creating the cache
// holder if this Network somehow predates it.
func (n *Network) scratch() *routeScratch {
	if n.rc == nil {
		n.rc = newRouteCache()
	}
	return &n.rc.scratch
}

// bfsDistDense fills s.dist[:V] with hop distances to dst over usable
// nodes and links, restricted to transit nodes accepted by allow (src
// and dst are always allowed). It explores the full reachable set — no
// early exit — so the distance field is a complete oracle the
// incremental repairer can patch under later deltas.
func bfsDistDense(ot *ordTable, nodePtrs []*Node, linkPtrs []*Link, srcOrd, dstOrd int32, allow NodeFilter, s *routeScratch) {
	dist := s.dist[:len(ot.nodeIDs)]
	for i := range dist {
		dist[i] = -1
	}
	q := s.queue[:0]
	dist[dstOrd] = 0
	q = append(q, dstOrd)
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		du := dist[u]
		for _, e := range ot.adjEdges[ot.adjOff[u]:ot.adjOff[u+1]] {
			if dist[e.node] != -1 {
				continue
			}
			if !linkPtrs[e.link].Usable() {
				continue
			}
			nd := nodePtrs[e.node]
			if !nd.Usable() {
				continue
			}
			if e.node != srcOrd && e.node != dstOrd && allow != nil && !allow(nd) {
				continue
			}
			dist[e.node] = du + 1
			q = append(q, e.node)
		}
	}
	s.queue = q
}

// trivialDAG is the src == dst case: one node, full fraction, no hops.
func trivialDAG(ot *ordTable, src NodeID, srcOrd int32) *RouteDAG {
	return &RouteDAG{
		Src:     src,
		Dst:     src,
		Hops:    0,
		ot:      ot,
		nodes:   []int32{srcOrd},
		frac:    []float64{1},
		succOff: []int32{0, 0},
	}
}

// buildDAGFromDist materializes the ECMP DAG for src->dst given a
// complete distance-to-dst field. Levels are processed in ascending node
// ID within each hop and fractions accumulate in successor CSR order, so
// the result is a pure function of the topology: any build of the same
// route yields bit-identical fractions. Returns nil when src is
// unreachable.
func buildDAGFromDist(ot *ordTable, linkPtrs []*Link, src, dst NodeID, srcOrd, dstOrd int32, dist []int32, s *routeScratch) *RouteDAG {
	total := dist[srcOrd]
	if total < 0 {
		return nil
	}
	if srcOrd == dstOrd {
		return trivialDAG(ot, src, srcOrd)
	}

	nodesStage := s.nodesStage[:0]
	offStage := s.offStage[:0]
	succs := s.succStage[:0]
	dirOrd := s.dirOrd[:0]
	level := s.level[:0]
	next := s.next[:0]

	level = append(level, srcOrd)
	nodesStage = append(nodesStage, srcOrd)
	s.frac[srcOrd] = 1
	for hop := total; hop > 0; hop-- {
		next = next[:0]
		for _, u := range level {
			offStage = append(offStage, int32(len(succs)))
			cnt := 0
			for _, e := range ot.adjEdges[ot.adjOff[u]:ot.adjOff[u+1]] {
				if dist[e.node] != hop-1 {
					continue
				}
				if !linkPtrs[e.link].Usable() {
					continue
				}
				var dirbit int32
				if ot.linkA[e.link] != u {
					dirbit = 1
				}
				succs = append(succs, dagEdge{node: e.node, dir: e.link<<1 | dirbit})
				cnt++
			}
			fu := s.frac[u]
			if cnt == 0 || fu == 0 {
				continue
			}
			share := fu / float64(cnt)
			for _, ed := range succs[len(succs)-cnt:] {
				if s.frac[ed.node] == 0 {
					next = append(next, ed.node)
				}
				s.frac[ed.node] += share
				if s.dirFrac[ed.dir] == 0 {
					dirOrd = append(dirOrd, ed.dir)
				}
				s.dirFrac[ed.dir] += share
			}
		}
		slices.Sort(next)
		nodesStage = append(nodesStage, next...)
		level, next = next, level
	}
	// Every staged node except dst was processed above; close its (empty)
	// successor span plus the CSR sentinel.
	offStage = append(offStage, int32(len(succs)), int32(len(succs)))

	k := len(nodesStage)
	for i, o := range nodesStage {
		s.dagIdx[o] = int32(i)
	}
	d := &RouteDAG{
		Src:     src,
		Dst:     dst,
		Hops:    int(total),
		ot:      ot,
		nodes:   append([]int32(nil), nodesStage...),
		frac:    make([]float64, k),
		succOff: append([]int32(nil), offStage...),
		succs:   make([]dagEdge, len(succs)),
		dirs:    make([]dirFrac, len(dirOrd)),
	}
	for i, o := range nodesStage {
		d.frac[i] = s.frac[o]
	}
	for i, ed := range succs {
		d.succs[i] = dagEdge{node: s.dagIdx[ed.node], dir: ed.dir}
	}
	for i, dir := range dirOrd {
		d.dirs[i] = dirFrac{dir: dir, frac: s.dirFrac[dir]}
	}

	// Re-zero the touched scratch so the next build starts clean.
	for _, o := range nodesStage {
		s.frac[o] = 0
	}
	for _, dir := range dirOrd {
		s.dirFrac[dir] = 0
	}
	s.nodesStage = nodesStage[:0]
	s.offStage = offStage[:0]
	s.succStage = succs[:0]
	s.dirOrd = dirOrd[:0]
	s.level = level[:0]
	s.next = next[:0]
	return d
}

// routeDAGDense runs the full dense compute: BFS from dst, then DAG
// materialization. The returned distance field is a fresh copy suitable
// for storing in a cache entry (nil for the trivial or unroutable
// cases); the incremental repairer patches it under later deltas.
func routeDAGDense(n *Network, src, dst NodeID, allow NodeFilter) (*RouteDAG, []int32) {
	srcNode, dstNode := n.Node(src), n.Node(dst)
	if srcNode == nil || dstNode == nil || !srcNode.Usable() || !dstNode.Usable() {
		return nil, nil
	}
	ot := n.ordTab()
	nodePtrs, linkPtrs := n.ptrTables()
	srcOrd, dstOrd := ot.nodeOrd[src], ot.nodeOrd[dst]
	if srcOrd == dstOrd {
		return trivialDAG(ot, src, srcOrd), nil
	}
	s := n.scratch()
	s.ensure(len(ot.nodeIDs), len(ot.linkIDs))
	bfsDistDense(ot, nodePtrs, linkPtrs, srcOrd, dstOrd, allow, s)
	dist := append([]int32(nil), s.dist[:len(ot.nodeIDs)]...)
	return buildDAGFromDist(ot, linkPtrs, src, dst, srcOrd, dstOrd, dist, s), dist
}
