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
