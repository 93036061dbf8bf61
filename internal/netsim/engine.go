package netsim

import "slices"

// trafficEngine computes TrafficReports into reusable struct-of-arrays
// slabs and, on consecutive computations over the same world, re-derives
// only what actually changed since the previous pass:
//
//   - pass 0 resolves every flow's DAG through the route cache and
//     classifies the delta: structural (flow set changed), dag-dirty
//     (some flow re-routed), or demand-only;
//   - pass 1 accumulates directed link loads — fully (in flow order, so
//     float results are bit-identical run to run) when any DAG moved, or
//     sparsely by re-summing just the links touched by demand-dirty
//     flows via a link->flows reverse index;
//   - pass 2 derives per-link loss/utilization over the dense slab and
//     records which directed losses moved;
//   - pass 3 re-runs the per-flow delivery/latency dynamic programs only
//     for flows whose DAG changed or that cross a loss-dirty link, then
//     rebuilds the aggregates in full flow order.
//
// Every skip is guarded by an exact equality check on the inputs of the
// skipped computation (same DAG pointer, same demand, same loss), so the
// output is bit-for-bit what a from-scratch pass would produce. A
// zero-value engine works and is what the free RouteTraffic uses; World
// owns a persistent one.
//
// A copy of a world (World.Fork, World.Clone) starts warm: its engine
// records the source world's engine and that engine's pass count, and
// its first pass starts from copies of the source's slabs instead of a
// reset (see warm), so it too re-derives only what the copy changed.
// The copy is lazy, made on that first pass, and only reads the source.
type trafficEngine struct {
	net *Network
	ot  *ordTable

	// Previous-pass flow bookkeeping, parallel to the flow slice.
	flows    []*Flow
	dags     []*RouteDAG
	demands  []float64
	dagDirty []bool
	demDirty []bool

	// Per-flow contribution spans: the (directed link, fraction) pairs
	// flow i adds to the load slab are contribDir/contribFrac
	// [contribOff[i]:contribOff[i+1]]. Rebuilt whenever any DAG changes.
	contribOff  []int32
	contribDir  []int32
	contribFrac []float64

	// Reverse index: flows crossing link l (ascending flow index) are
	// revFlows[revOff[l]:revOff[l+1]]. Derived lazily from contributions.
	revOff   []int32
	revFlows []int32
	revCur   []int32
	revValid bool

	load       []float64 // directed link load, 2 entries per link (A->B, B->A)
	lossDirty  []bool    // directed loss changed this pass
	linkDirty  []bool    // per-link mark for the sparse accumulation path
	dirtyLinks []int32

	flowSlab []FlowStats
	dp       []float64

	// Service aggregation slabs: structs are reused across passes via a
	// generation stamp (the pass count) and pruned when a service
	// disappears.
	svcList    []*ServiceStats
	svcGen     []uint64
	svcIdx     map[string]int
	svcTouched int

	// pass counts route calls over the engine's lifetime; a reset does
	// not rewind it, so an unchanged count means unchanged slabs.
	pass uint64

	// src is the engine a copy starts warm from, and srcPass its pass
	// count when the copy was taken. The first route consumes them.
	src     *trafficEngine
	srcPass uint64

	rep  TrafficReport // rep.Links is the per-link slab
	full bool
}

func (e *trafficEngine) reset(n *Network, ot *ordTable) {
	e.net, e.ot = n, ot
	v, l := len(ot.nodeIDs), len(ot.linkIDs)
	e.load = make([]float64, 2*l)
	e.lossDirty = make([]bool, 2*l)
	e.linkDirty = make([]bool, l)
	e.revCur = make([]int32, l)
	e.dp = make([]float64, v)
	e.rep = TrafficReport{
		Links:        make([]LinkStats, l),
		ServiceStats: make(map[string]*ServiceStats),
		ot:           ot,
		dirLoss:      make([]float64, 2*l),
	}
	for i, lid := range ot.linkIDs {
		e.rep.Links[i].Link = lid
	}
	e.svcList, e.svcGen = nil, nil
	e.svcIdx = make(map[string]int)
	e.flows = nil
	e.revValid = false
	e.full = true
}

// warm is the first pass's alternative to reset for a copy's engine: it
// takes the source's last pass as this engine's previous one by copying
// the slabs the incremental passes compare against (DAGs, demands,
// contribution spans, loads, per-link and per-flow stats, directed
// loss). Every later skip stays guarded by exact equality, so the bytes
// are those of a reset. It reports false when there is no source or
// its slabs no longer describe the copy's starting point: the source
// routed since the copy, its topology generation differs, or its flow
// set does. Service aggregates are rebuilt in full by every pass and
// are not copied.
func (e *trafficEngine) warm(n *Network, ot *ordTable, flows []*Flow) bool {
	s := e.src
	e.src = nil
	if s == nil || s.pass != e.srcPass || s.ot != ot || len(s.flows) != len(flows) {
		return false
	}
	for i, fl := range flows {
		if s.flows[i].ID != fl.ID {
			return false
		}
	}
	e.reset(n, ot)
	copy(e.load, s.load)
	copy(e.rep.Links, s.rep.Links)
	copy(e.rep.dirLoss, s.rep.dirLoss)
	e.resize(len(flows))
	copy(e.flows, flows)
	copy(e.dags, s.dags)
	copy(e.demands, s.demands)
	copy(e.flowSlab, s.flowSlab)
	e.contribOff = slices.Clone(s.contribOff)
	e.contribDir = slices.Clone(s.contribDir)
	e.contribFrac = slices.Clone(s.contribFrac)
	e.full = false
	return true
}

func (e *trafficEngine) resize(f int) {
	e.flows = make([]*Flow, f)
	e.dags = make([]*RouteDAG, f)
	e.demands = make([]float64, f)
	e.dagDirty = make([]bool, f)
	e.demDirty = make([]bool, f)
	e.flowSlab = make([]FlowStats, f)
	e.rep.FlowStats = make([]*FlowStats, f)
	for i := range e.flowSlab {
		e.rep.FlowStats[i] = &e.flowSlab[i]
	}
}

// route is the engine entry point. It routes every flow over its ECMP
// DAG subject to the selector's per-flow constraints, accumulates
// directed link load, and derives loss from capacity overload plus link
// corruption. The loss model is the standard fluid approximation: a
// directed link with offered load L on capacity C drops fraction
// max(0, (L-C)/L); a flow's delivered fraction is computed exactly over
// its ECMP DAG.
func (e *trafficEngine) route(n *Network, flows []*Flow, sel PathSelector) *TrafficReport {
	ot := n.ordTab()
	if (e.net != n || e.ot != ot) && !e.warm(n, ot, flows) {
		e.reset(n, ot)
	}
	_, linkPtrs := n.ptrTables()
	l := len(ot.linkIDs)
	f := len(flows)

	// Pass 0: resolve DAGs and classify the delta.
	structural := e.full || f != len(e.flows)
	if !structural {
		for i, fl := range flows {
			if e.flows[i] != fl {
				structural = true
				break
			}
		}
	}
	if structural {
		if f != len(e.flows) {
			e.resize(f)
		}
		copy(e.flows, flows)
	}
	var dc *downSet
	dagAny, demAny := false, false
	for i, fl := range flows {
		dag := n.cachedRouteDAG(fl, sel, &dc)
		if structural {
			e.dags[i] = dag
			e.demands[i] = fl.DemandGbps
			continue
		}
		dd := e.dags[i] != dag
		e.dagDirty[i] = dd
		if dd {
			dagAny = true
			e.dags[i] = dag
		}
		md := e.demands[i] != fl.DemandGbps
		e.demDirty[i] = md
		if md {
			demAny = true
			e.demands[i] = fl.DemandGbps
		}
	}

	// Pass 1: directed link loads.
	switch {
	case structural || dagAny:
		e.accumulateAll(f, l)
	case demAny:
		e.accumulateDirty(f, l)
	}

	// Pass 2: per-link loss and utilization, always over the full slab.
	lossAny := false
	dirLoss := e.rep.dirLoss
	for li := 0; li < l; li++ {
		lk := linkPtrs[li]
		ls := &e.rep.Links[li]
		ab, ba := e.load[2*li], e.load[2*li+1]
		ls.Load.AB, ls.Load.BA = ab, ba
		ls.Utilization = 0
		if lk.CapacityGbps > 0 {
			m := ab
			if ba > m {
				m = ba
			}
			ls.Utilization = m / lk.CapacityGbps
		}
		la := clamp01(overloadLoss(ab, lk.CapacityGbps) + lk.CorruptRate)
		lb := clamp01(overloadLoss(ba, lk.CapacityGbps) + lk.CorruptRate)
		da, db := la != dirLoss[2*li], lb != dirLoss[2*li+1]
		e.lossDirty[2*li] = da
		e.lossDirty[2*li+1] = db
		if da {
			dirLoss[2*li] = la
			lossAny = true
		}
		if db {
			dirLoss[2*li+1] = lb
			lossAny = true
		}
		ls.LossAB, ls.LossBA = la, lb
		ls.LossRate = la
		if lb > la {
			ls.LossRate = lb
		}
	}

	// Pass 3: per-flow dynamic programs where needed, aggregates in full.
	e.pass++
	e.svcTouched = 0
	rep := &e.rep
	rep.TotalDemand, rep.TotalDelivered = 0, 0
	for i := 0; i < f; i++ {
		fl := flows[i]
		fs := &e.flowSlab[i]
		dag := e.dags[i]
		fs.Flow, fs.DAG = fl, dag
		fs.Routed = dag != nil
		if dag == nil {
			fs.LossRate, fs.LatencyMs = 1, 0
		} else {
			recompute := structural || e.dagDirty[i]
			if !recompute && lossAny {
				for _, df := range dag.dirs {
					if e.lossDirty[df.dir] {
						recompute = true
						break
					}
				}
			}
			if recompute {
				fs.LossRate = clamp01(1 - dag.deliveredDense(dirLoss, e.dp))
				fs.LatencyMs = dag.delayDense(linkPtrs, e.dp)
			}
		}

		rep.TotalDemand += fl.DemandGbps
		svc := e.svcFor(fl.Service)
		svc.Flows++
		svc.Demand += fl.DemandGbps
		if dag == nil {
			svc.Unrouted++
			continue
		}
		del := fl.DemandGbps * (1 - fs.LossRate)
		rep.TotalDelivered += del
		svc.Delivered += del
		if fs.LatencyMs > svc.MaxLatency {
			svc.MaxLatency = fs.LatencyMs
		}
	}
	if e.svcTouched != len(e.svcList) {
		e.pruneServices()
	}
	for _, svc := range e.svcList {
		if svc.Demand > 0 {
			svc.LossRate = 1 - svc.Delivered/svc.Demand
		}
	}
	e.full = false
	return rep
}

// accumulateAll zeroes the load slab and re-adds every flow's
// contribution in flow order, rebuilding the contribution spans.
func (e *trafficEngine) accumulateAll(f, l int) {
	for i := range e.load[:2*l] {
		e.load[i] = 0
	}
	e.contribOff = e.contribOff[:0]
	e.contribDir = e.contribDir[:0]
	e.contribFrac = e.contribFrac[:0]
	for i := 0; i < f; i++ {
		e.contribOff = append(e.contribOff, int32(len(e.contribDir)))
		dag := e.dags[i]
		if dag == nil {
			continue
		}
		dem := e.demands[i]
		for _, df := range dag.dirs {
			e.load[df.dir] += dem * df.frac
			e.contribDir = append(e.contribDir, df.dir)
			e.contribFrac = append(e.contribFrac, df.frac)
		}
	}
	e.contribOff = append(e.contribOff, int32(len(e.contribDir)))
	e.revValid = false
}

// accumulateDirty re-derives only the links crossed by demand-dirty
// flows. Each dirty link's two directed accumulators are zeroed and
// re-summed from its crossing flows in ascending flow order — the same
// add sequence a full pass would produce for that accumulator, keeping
// the result bit-identical.
func (e *trafficEngine) accumulateDirty(f, l int) {
	e.ensureRev(f, l)
	e.dirtyLinks = e.dirtyLinks[:0]
	for i := 0; i < f; i++ {
		if !e.demDirty[i] {
			continue
		}
		for _, dir := range e.contribDir[e.contribOff[i]:e.contribOff[i+1]] {
			li := dir >> 1
			if !e.linkDirty[li] {
				e.linkDirty[li] = true
				e.dirtyLinks = append(e.dirtyLinks, li)
			}
		}
	}
	for _, li := range e.dirtyLinks {
		e.load[2*li] = 0
		e.load[2*li+1] = 0
		for _, fi := range e.revFlows[e.revOff[li]:e.revOff[li+1]] {
			dem := e.demands[fi]
			s, t := e.contribOff[fi], e.contribOff[fi+1]
			for j := s; j < t; j++ {
				if e.contribDir[j]>>1 == li {
					e.load[e.contribDir[j]] += dem * e.contribFrac[j]
				}
			}
		}
		e.linkDirty[li] = false
	}
}

// ensureRev (re)builds the link->flows reverse index from the current
// contribution spans.
func (e *trafficEngine) ensureRev(f, l int) {
	if e.revValid {
		return
	}
	if cap(e.revOff) < l+1 {
		e.revOff = make([]int32, l+1)
	}
	e.revOff = e.revOff[:l+1]
	for i := range e.revOff {
		e.revOff[i] = 0
	}
	for _, dir := range e.contribDir {
		e.revOff[dir>>1+1]++
	}
	for i := 1; i <= l; i++ {
		e.revOff[i] += e.revOff[i-1]
	}
	total := int(e.revOff[l])
	if cap(e.revFlows) < total {
		e.revFlows = make([]int32, total)
	}
	e.revFlows = e.revFlows[:total]
	copy(e.revCur, e.revOff[:l])
	for i := 0; i < f; i++ {
		for _, dir := range e.contribDir[e.contribOff[i]:e.contribOff[i+1]] {
			li := dir >> 1
			e.revFlows[e.revCur[li]] = int32(i)
			e.revCur[li]++
		}
	}
	e.revValid = true
}

// svcFor returns the (reset-on-first-touch) aggregate for a service.
func (e *trafficEngine) svcFor(name string) *ServiceStats {
	idx, ok := e.svcIdx[name]
	if !ok {
		idx = len(e.svcList)
		e.svcList = append(e.svcList, &ServiceStats{})
		e.svcGen = append(e.svcGen, 0)
		e.svcIdx[name] = idx
		e.rep.ServiceStats[name] = e.svcList[idx]
	}
	ss := e.svcList[idx]
	if e.svcGen[idx] != e.pass {
		*ss = ServiceStats{Service: name}
		e.svcGen[idx] = e.pass
		e.svcTouched++
	}
	return ss
}

// pruneServices drops aggregates for services absent from this pass.
func (e *trafficEngine) pruneServices() {
	kept := e.svcList[:0]
	keptGen := e.svcGen[:0]
	for i, ss := range e.svcList {
		if e.svcGen[i] == e.pass {
			kept = append(kept, ss)
			keptGen = append(keptGen, e.svcGen[i])
			continue
		}
		delete(e.rep.ServiceStats, ss.Service)
		delete(e.svcIdx, ss.Service)
	}
	e.svcList, e.svcGen = kept, keptGen
	for i, ss := range e.svcList {
		e.svcIdx[ss.Service] = i
	}
}
