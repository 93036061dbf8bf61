package netsim

import "fmt"

// NodeID identifies a device (switch, router, host, controller) in the
// simulated network.
type NodeID string

// LinkID identifies a link. Links are undirected; the ID is canonical
// regardless of endpoint order.
type LinkID string

// NodeKind classifies devices by their role in the topology.
type NodeKind int

// Device roles. Tiers follow the usual Clos naming; WAN routers belong to
// one of the backbone networks (see WANName on Node).
const (
	KindHost NodeKind = iota
	KindToR
	KindAgg
	KindSpine
	KindGateway // region border router, attaches a region to the WANs
	KindWANRouter
	KindController // SDN traffic controller
)

// String returns a short human-readable role name.
func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindToR:
		return "tor"
	case KindAgg:
		return "agg"
	case KindSpine:
		return "spine"
	case KindGateway:
		return "gateway"
	case KindWANRouter:
		return "wan-router"
	case KindController:
		return "controller"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a device in the simulated network.
//
// Healthy distinguishes a device that is functioning from one that has
// crashed or wedged (e.g. an OS failure); Isolated means operators have
// deliberately taken the device out of service. Both remove the device
// from the routable graph, but monitors report them differently: health
// monitors see unhealthy devices, while isolation is recorded in the
// change log.
type Node struct {
	ID      NodeID
	Kind    NodeKind
	Region  string
	WANName string // owning WAN for KindWANRouter, "" otherwise

	Healthy  bool
	Isolated bool

	// Protocols models the software running on the device. Scenario
	// faults key off it: e.g. the novel-protocol incident only wedges
	// devices running the buggy protocol.
	Protocols map[string]bool
}

// Usable reports whether the node can carry traffic.
func (n *Node) Usable() bool { return n.Healthy && !n.Isolated }

// ProtocolEnabled reports whether the named protocol is enabled on the node.
func (n *Node) ProtocolEnabled(name string) bool { return n.Protocols[name] }

// clone returns a deep copy of the node.
func (n *Node) clone() *Node {
	c := *n
	c.Protocols = make(map[string]bool, len(n.Protocols))
	for k, v := range n.Protocols {
		c.Protocols[k] = v
	}
	return &c
}

// Link is an undirected connection between two devices.
type Link struct {
	ID LinkID
	A  NodeID
	B  NodeID

	// CapacityGbps is the usable bandwidth in each direction. The
	// simulator treats the two directions independently when
	// accumulating load.
	CapacityGbps float64

	// PropDelayMs is the one-way propagation delay contribution.
	PropDelayMs float64

	Down        bool    // failed (fiber cut, transceiver dead, ...)
	Isolated    bool    // operator removed from service
	CorruptRate float64 // fraction of frames corrupted (FCS errors); 0 for clean links
}

// Usable reports whether the link itself can carry traffic. Whether its
// endpoints are usable is the Network's concern.
func (l *Link) Usable() bool { return !l.Down && !l.Isolated }

// clone returns a copy of the link.
func (l *Link) clone() *Link {
	c := *l
	return &c
}

// MakeLinkID builds the canonical ID for a link between a and b, which is
// independent of argument order.
func MakeLinkID(a, b NodeID) LinkID {
	if b < a {
		a, b = b, a
	}
	return LinkID(string(a) + "--" + string(b))
}
