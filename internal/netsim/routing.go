package netsim

// NodeFilter restricts the nodes a route may traverse. A nil filter allows
// every node. Source and destination are always allowed regardless of the
// filter, so a filter only constrains transit nodes.
type NodeFilter func(*Node) bool
