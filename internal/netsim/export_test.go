package netsim

// Test-only accessors and oracles: program code has no use for them,
// the tests below use them to build fixtures and as references.

// RouteTraffic routes flows through a fresh, ephemeral engine: the
// from-scratch reference that worlds' persistent engines are compared
// against.
func RouteTraffic(n *Network, flows []*Flow, sel PathSelector) *TrafficReport {
	var e trafficEngine
	return e.route(n, flows, sel)
}

// NodesByKind returns all nodes of the given kind, sorted by ID.
func (n *Network) NodesByKind(kind NodeKind) []*Node {
	var out []*Node
	for _, nd := range n.Nodes() {
		if nd.Kind == kind {
			out = append(out, nd)
		}
	}
	return out
}

// RemoveFlowsByService drops all flows with the given service label and
// reports how many were removed: the flow-removal delta of the engine
// tests.
func (w *World) RemoveFlowsByService(service string) int {
	kept := w.flows[:0]
	removed := 0
	for _, f := range w.flows {
		if f.Service == service {
			removed++
			continue
		}
		kept = append(kept, f)
	}
	w.flows = kept
	w.report = nil
	return removed
}

// hops is the route's shortest-path length: the successor steps from
// src to dst. Every successor sits one level closer to dst, so any
// first-successor walk takes the same number of steps; a walk that
// stops short of dst returns -1.
func (d *RouteDAG) hops() int {
	i, n := 0, 0 // src is the first node
	for d.succOff[i] < d.succOff[i+1] {
		i = int(d.succs[d.succOff[i]].node)
		n++
	}
	if i != len(d.nodes)-1 {
		return -1
	}
	return n
}
