package netsim

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
)

// Flow is a unidirectional aggregate demand between two endpoints. Flows
// carry a Service label (telemetry and risk assessment aggregate by it)
// and free-form attributes; scenario triggers key off attributes (e.g.
// the novel-protocol incident wedges devices that forward flows carrying
// a particular header pattern).
type Flow struct {
	ID         string
	Src, Dst   NodeID
	DemandGbps float64
	Service    string
	Attrs      map[string]string
}

// Attr returns the flow attribute for key, or "".
func (f *Flow) Attr(key string) string {
	if f.Attrs == nil {
		return ""
	}
	return f.Attrs[key]
}

// DirLink identifies one direction of an undirected link: Forward means
// traffic flowing from endpoint A toward B.
type DirLink struct {
	Link    LinkID
	Forward bool
}

// dagEdge is one shortest-path successor edge in a DAG's dense form: the
// successor's index within the DAG's nodes slice and the traversed
// directed link encoded as 2*linkOrdinal with the low bit set for the
// B->A direction.
type dagEdge struct {
	node int32
	dir  int32
}

// dirFrac is the total fraction of a flow crossing one directed link.
type dirFrac struct {
	dir  int32
	frac float64
}

// RouteDAG is the exact per-hop ECMP routing of one flow: every node on a
// minimum-hop path from Src to Dst, annotated with the fraction of the
// flow transiting it, assuming each hop splits equally across all
// next-hops that lie on a shortest path (how hardware ECMP behaves in
// aggregate).
type RouteDAG struct {
	Src, Dst NodeID
	Hops     int

	// The route in dense form over the ordinal table it was computed
	// against (see ordinal.go): nodes lists node ordinals in level order
	// — src first, then each hop level in ascending-ID order, dst last —
	// with frac the matching transit fractions and succOff/succs the
	// per-node shortest-path successor CSR. dirs holds the
	// per-directed-link fractions in first-touch order. All of it is
	// immutable after construction, so a DAG shared across clone
	// lineages evaluates identically from any member. Nodes and Links
	// are the read-only views.
	ot      *ordTable
	nodes   []int32
	frac    []float64
	succOff []int32
	succs   []dagEdge
	dirs    []dirFrac
}

// Nodes yields every node on the DAG with the fraction of the flow
// transiting it, in level order: src first, dst last.
func (d *RouteDAG) Nodes() iter.Seq2[NodeID, float64] {
	return func(yield func(NodeID, float64) bool) {
		for i, o := range d.nodes {
			if !yield(d.ot.nodeIDs[o], d.frac[i]) {
				return
			}
		}
	}
}

// Links yields every directed link the DAG crosses with the fraction of
// the flow crossing it, in first-touch order. A DAG crosses each link
// in at most one direction.
func (d *RouteDAG) Links() iter.Seq2[DirLink, float64] {
	return func(yield func(DirLink, float64) bool) {
		for _, df := range d.dirs {
			if !yield(DirLink{Link: d.ot.linkIDs[df.dir>>1], Forward: df.dir&1 == 0}, df.frac) {
				return
			}
		}
	}
}

// TransitNodes returns nodes (excluding src and dst) that carry a positive
// fraction of the flow, sorted by ID. Triggers use this to decide which
// devices "saw" a flow.
func (d *RouteDAG) TransitNodes() []NodeID {
	var out []NodeID
	for i, o := range d.nodes {
		id := d.ot.nodeIDs[o]
		if d.frac[i] > 0 && id != d.Src && id != d.Dst {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// RouteDAGFor computes the ECMP routing DAG for src->dst over usable
// nodes/links, restricted to transit nodes accepted by allow. It returns
// nil when dst is unreachable.
func RouteDAGFor(n *Network, src, dst NodeID, allow NodeFilter) *RouteDAG {
	dag, _ := routeDAGDense(n, src, dst, allow)
	return dag
}

// deliveredDense runs the delivery dynamic program backward over the
// DAG's level order: dp[i] becomes the probability a unit of traffic
// entering node i reaches dst, given per-directed-link loss rates
// indexed by the DAG's ordinal table. Successor sums run in CSR order,
// so the result is a pure function of the DAG and the loss rates.
func (d *RouteDAG) deliveredDense(loss []float64, dp []float64) float64 {
	k := len(d.nodes)
	dp[k-1] = 1 // dst
	for i := k - 2; i >= 0; i-- {
		s, e := d.succOff[i], d.succOff[i+1]
		if s == e {
			dp[i] = 0
			continue
		}
		var sum float64
		for _, ed := range d.succs[s:e] {
			sum += (1 - loss[ed.dir]) * dp[ed.node]
		}
		dp[i] = sum / float64(e-s)
	}
	return dp[0]
}

// delayDense is the latency dynamic program: mean path propagation delay
// under equal per-hop splitting. PropDelayMs is immutable, so resolving
// links through any lineage member's pointer table gives the same value.
func (d *RouteDAG) delayDense(linkPtrs []*Link, dp []float64) float64 {
	k := len(d.nodes)
	dp[k-1] = 0
	for i := k - 2; i >= 0; i-- {
		s, e := d.succOff[i], d.succOff[i+1]
		if s == e {
			dp[i] = 0
			continue
		}
		var sum float64
		for _, ed := range d.succs[s:e] {
			sum += linkPtrs[ed.dir>>1].PropDelayMs + dp[ed.node]
		}
		dp[i] = sum / float64(e-s)
	}
	return dp[0]
}

// DirLoad tracks directed load on an undirected link: AB is traffic
// flowing from endpoint A toward B, BA the reverse.
type DirLoad struct {
	AB, BA float64
}

// Max returns the larger directional load.
func (d DirLoad) Max() float64 {
	if d.AB >= d.BA {
		return d.AB
	}
	return d.BA
}

// LinkStats is the per-link outcome of routing a traffic matrix.
type LinkStats struct {
	Link        LinkID
	Load        DirLoad
	Utilization float64 // max directional load / capacity
	LossRate    float64 // loss fraction on the hotter direction
	LossAB      float64 // loss fraction A->B (overload + corruption)
	LossBA      float64 // loss fraction B->A
}

// FlowStats is the per-flow outcome.
type FlowStats struct {
	Flow      *Flow
	Routed    bool
	DAG       *RouteDAG
	LossRate  float64 // 0..1 fraction of demand not delivered
	LatencyMs float64 // expected path delay under ECMP splitting
}

// Delivered reports the goodput of the flow in Gbps.
func (s *FlowStats) Delivered() float64 {
	if !s.Routed {
		return 0
	}
	return s.Flow.DemandGbps * (1 - s.LossRate)
}

// ServiceStats aggregates flow outcomes per service label.
type ServiceStats struct {
	Service    string
	Demand     float64
	Delivered  float64
	LossRate   float64 // demand-weighted
	MaxLatency float64
	Flows      int
	Unrouted   int
}

// TrafficReport is the result of routing a traffic matrix over the
// network: the ground truth telemetry monitors sample from.
//
// Reports handed out by World.Report/Recompute are backed by reusable
// per-world slabs: the report is valid until the next recompute on the
// same world. Every consumer in the repository reads a report
// immediately after obtaining it (and what-if clones get their own
// slabs), so the reuse is invisible; holding a report across a
// recompute of the same world is not supported.
type TrafficReport struct {
	LinkStats      map[LinkID]*LinkStats
	FlowStats      []*FlowStats
	ServiceStats   map[string]*ServiceStats
	TotalDemand    float64
	TotalDelivered float64

	// ot/dirLoss expose the dense per-directed-link loss the report was
	// computed with; ProbeLossOverDAG reads it without map lookups.
	ot      *ordTable
	dirLoss []float64
}

// forkTo returns a copy of r for a fork whose flows are to: the slab
// copies, in the same order, of the flows r was computed over.
// Link and service statistics, DAGs and the loss slab are shared: only
// r's engine writes them, and a forked world replaces its report on its
// first recompute.
func (r *TrafficReport) forkTo(to []*Flow) *TrafficReport {
	if r == nil {
		return nil
	}
	c := *r
	slab := make([]FlowStats, len(r.FlowStats))
	c.FlowStats = make([]*FlowStats, len(r.FlowStats))
	for i, fs := range r.FlowStats {
		slab[i] = *fs
		slab[i].Flow = to[i]
		c.FlowStats[i] = &slab[i]
	}
	return &c
}

// OverallLossRate reports the demand-weighted loss fraction across all flows.
func (r *TrafficReport) OverallLossRate() float64 {
	if r.TotalDemand == 0 {
		return 0
	}
	return 1 - r.TotalDelivered/r.TotalDemand
}

// HotLinks returns links with utilization of at least threshold, sorted by
// descending utilization (ties by ID).
func (r *TrafficReport) HotLinks(threshold float64) []*LinkStats {
	var out []*LinkStats
	for _, ls := range r.LinkStats {
		if ls.Utilization >= threshold {
			out = append(out, ls)
		}
	}
	slices.SortFunc(out, func(a, b *LinkStats) int {
		if a.Utilization != b.Utilization {
			if a.Utilization > b.Utilization {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Link, b.Link)
	})
	return out
}

// PathSelector decides the transit constraint for a flow; the WAN traffic
// controller implements it to steer inter-region flows onto a chosen WAN.
// A nil selector places no constraint.
type PathSelector interface {
	// FilterFor returns the transit-node filter to route flow f under,
	// or nil for no constraint.
	FilterFor(f *Flow) NodeFilter
}

// RouteTraffic routes every flow over its ECMP DAG subject to the
// selector's per-flow constraints, accumulates directed link load, and
// derives loss from capacity overload plus link corruption.
//
// The loss model is the standard fluid approximation: a directed link
// with offered load L on capacity C drops fraction max(0, (L-C)/L); a
// flow's delivered fraction is computed exactly over its ECMP DAG.
//
// This entry point builds a fresh report through an ephemeral engine;
// worlds route through their own persistent engine (see engine.go),
// which reuses slabs and re-derives only what changed between ticks.
func RouteTraffic(n *Network, flows []*Flow, sel PathSelector) *TrafficReport {
	var e trafficEngine
	return e.route(n, flows, sel)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func overloadLoss(load, capacity float64) float64 {
	if capacity <= 0 || load <= capacity {
		return 0
	}
	return (load - capacity) / load
}

// UniformMeshFlows builds a flow per ordered pair of the given endpoints,
// each with the same demand and service label. Useful for synthetic
// background traffic in tests and workloads.
func UniformMeshFlows(endpoints []NodeID, demandGbps float64, service string) []*Flow {
	var flows []*Flow
	for i, a := range endpoints {
		for j, b := range endpoints {
			if i == j {
				continue
			}
			flows = append(flows, &Flow{
				ID:         fmt.Sprintf("%s:%s->%s", service, a, b),
				Src:        a,
				Dst:        b,
				DemandGbps: demandGbps,
				Service:    service,
			})
		}
	}
	return flows
}

// ProbeLossOverDAG evaluates the loss a zero-demand probe would observe
// traversing dag, given the per-link loss rates already computed in rep.
// Telemetry probes (PingMesh) use it so probing does not perturb load.
func ProbeLossOverDAG(dag *RouteDAG, rep *TrafficReport) float64 {
	dp := make([]float64, len(dag.nodes))
	if rep.ot == dag.ot && rep.dirLoss != nil {
		return clamp01(1 - dag.deliveredDense(rep.dirLoss, dp))
	}
	// Report and DAG come from different topology generations: resolve
	// the DAG's directed links through the report's link map into a
	// dense loss slice over the DAG's own ordinal table.
	loss := make([]float64, 2*len(dag.ot.linkIDs))
	for _, df := range dag.dirs {
		ls := rep.LinkStats[dag.ot.linkIDs[df.dir>>1]]
		if ls == nil {
			continue
		}
		loss[df.dir] = ls.LossAB
		if df.dir&1 == 1 {
			loss[df.dir] = ls.LossBA
		}
	}
	return clamp01(1 - dag.deliveredDense(loss, dp))
}
