package netsim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// PrefixAnnouncement is one cluster's view of an IP prefix being reachable
// over a WAN. The Casc-1 incident began with a transient configuration
// inconsistency that caused more than one cluster to observe B4 with
// several IP prefixes; the traffic controller misread that as a B4
// failure.
type PrefixAnnouncement struct {
	Prefix  string
	WAN     string
	Cluster string // the cluster (region) observing the announcement
}

// Controller is the simulated WAN traffic controller. It watches prefix
// announcements per WAN, decides which WANs are healthy, and assigns each
// inter-region flow to a WAN. It faithfully carries the Casc-1 bug: a WAN
// whose prefix table looks inconsistent (the same prefix observed by
// multiple clusters) is declared failed and all of its traffic is shifted
// to the remaining WANs.
type Controller struct {
	NodeID   NodeID // the controller device in the network
	wanOrder []string
	wanPref  map[string]int // preference rank: lower = preferred for bulk

	announcements []PrefixAnnouncement
	failedWANs    map[string]bool
	overrides     map[string]bool // operator-forced WAN health (true = force healthy)

	// filterKeys precomputes the "wan:<name>" route-cache key per known
	// WAN (plus the all-failed "" case) so FilterKey allocates nothing on
	// the routing hot path. evalSeen is Evaluate's reused scratch.
	filterKeys map[string]string
	evalSeen   map[wanPrefix]string

	// BuggyInconsistencyCheck enables the Casc-1 misinterpretation. A
	// fixed controller (post-incident) treats duplicate observations as
	// benign.
	BuggyInconsistencyCheck bool
}

// NewController builds a controller over the given WAN names, ordered
// from most preferred (typically the high-capacity bulk WAN) to least.
func NewController(nodeID NodeID, wanPreference []string) *Controller {
	c := &Controller{
		NodeID:                  nodeID,
		wanOrder:                append([]string(nil), wanPreference...),
		wanPref:                 make(map[string]int, len(wanPreference)),
		failedWANs:              make(map[string]bool),
		overrides:               make(map[string]bool),
		filterKeys:              make(map[string]string, len(wanPreference)+1),
		BuggyInconsistencyCheck: true,
	}
	for i, w := range wanPreference {
		c.wanPref[w] = i
		c.filterKeys[w] = "wan:" + w
	}
	c.filterKeys[""] = "wan:"
	return c
}

// WANs returns the controller's WAN names in preference order.
func (c *Controller) WANs() []string { return append([]string(nil), c.wanOrder...) }

// Announce records a prefix announcement observation.
func (c *Controller) Announce(a PrefixAnnouncement) {
	c.announcements = append(c.announcements, a)
}

// WithdrawAll removes every announcement for the given WAN matching the
// prefix; used by config rollbacks.
func (c *Controller) WithdrawAll(wan, prefix string) {
	out := c.announcements[:0]
	for _, a := range c.announcements {
		if a.WAN == wan && a.Prefix == prefix {
			continue
		}
		out = append(out, a)
	}
	c.announcements = out
}

// Announcements returns a copy of the current announcement table, sorted
// deterministically. Diagnostic tools expose this to the helper.
func (c *Controller) Announcements() []PrefixAnnouncement {
	out := append([]PrefixAnnouncement(nil), c.announcements...)
	slices.SortFunc(out, func(a, b PrefixAnnouncement) int {
		if v := cmp.Compare(a.WAN, b.WAN); v != 0 {
			return v
		}
		if v := cmp.Compare(a.Prefix, b.Prefix); v != 0 {
			return v
		}
		return cmp.Compare(a.Cluster, b.Cluster)
	})
	return out
}

// wanPrefix keys per-(WAN, prefix) observation state.
type wanPrefix struct{ wan, prefix string }

// InconsistentWANs reports WANs whose announcement tables contain the
// same prefix observed from more than one cluster — the signature the
// buggy controller misinterprets as failure.
func (c *Controller) InconsistentWANs() []string {
	clusters := make(map[wanPrefix]map[string]bool)
	for _, a := range c.announcements {
		k := wanPrefix{a.WAN, a.Prefix}
		if clusters[k] == nil {
			clusters[k] = make(map[string]bool)
		}
		clusters[k][a.Cluster] = true
	}
	bad := make(map[string]bool)
	for k, cs := range clusters {
		if len(cs) > 1 {
			bad[k.wan] = true
		}
	}
	out := make([]string, 0, len(bad))
	for w := range bad {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Evaluate recomputes the failed-WAN set from the announcement table.
// With BuggyInconsistencyCheck set, inconsistent WANs are declared failed
// (the Casc-1 behaviour). Operator overrides force a WAN healthy
// regardless. Evaluate runs every Recompute round, so it works in reused
// scratch: a (WAN, prefix) pair is inconsistent exactly when some
// announcement's cluster differs from the first cluster observed for it.
func (c *Controller) Evaluate() {
	clear(c.failedWANs)
	if c.BuggyInconsistencyCheck {
		if c.evalSeen == nil {
			c.evalSeen = make(map[wanPrefix]string)
		}
		clear(c.evalSeen)
		for _, a := range c.announcements {
			k := wanPrefix{a.WAN, a.Prefix}
			first, ok := c.evalSeen[k]
			if !ok {
				c.evalSeen[k] = a.Cluster
				continue
			}
			if first != a.Cluster {
				c.failedWANs[a.WAN] = true
			}
		}
	}
	for w, forceHealthy := range c.overrides {
		if forceHealthy {
			delete(c.failedWANs, w)
		} else {
			c.failedWANs[w] = true
		}
	}
}

// Override forces the controller's view of a WAN: healthy (true) or
// failed (false). Operators use this to bypass the buggy inconsistency
// check during mitigation. ClearOverride removes it.
func (c *Controller) Override(wan string, healthy bool) { c.overrides[wan] = healthy }

// ClearOverride removes an operator override for the WAN.
func (c *Controller) ClearOverride(wan string) { delete(c.overrides, wan) }

// FailedWANs lists WANs the controller currently believes are failed.
func (c *Controller) FailedWANs() []string {
	out := make([]string, 0, len(c.failedWANs))
	for w := range c.failedWANs {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// AssignWAN picks the WAN for a flow: the most preferred WAN not believed
// failed, honoring a flow's explicit "wan" attribute when that WAN is
// believed healthy. It returns "" when the controller believes every WAN
// is failed (traffic is then unrouted — a total outage).
func (c *Controller) AssignWAN(f *Flow) string {
	if want := f.Attr("wan"); want != "" && !c.failedWANs[want] {
		return want
	}
	for _, w := range c.wanOrder {
		if !c.failedWANs[w] {
			return w
		}
	}
	return ""
}

// FilterFor implements PathSelector: inter-region flows may only transit
// WAN routers belonging to their assigned WAN. Intra-region flows (and
// flows when the network has no WAN routers) are unconstrained.
func (c *Controller) FilterFor(f *Flow) NodeFilter {
	wan := c.AssignWAN(f)
	return func(nd *Node) bool {
		if nd.Kind != KindWANRouter {
			return true
		}
		return wan != "" && nd.WANName == wan
	}
}

// FilterKey implements FilterKeyer: the filter FilterFor builds depends
// only on the assigned WAN (and on immutable node Kind/WANName fields),
// so the WAN name keys the route cache exactly. Known WANs resolve to a
// precomputed key string so the hot path allocates nothing.
func (c *Controller) FilterKey(f *Flow) (string, bool) {
	wan := c.AssignWAN(f)
	if k, ok := c.filterKeys[wan]; ok {
		return k, true
	}
	return "wan:" + wan, true
}

// String summarizes controller state for traces and logs.
func (c *Controller) String() string {
	return fmt.Sprintf("controller{failed=%v inconsistent=%v announcements=%d}",
		c.FailedWANs(), c.InconsistentWANs(), len(c.announcements))
}

// Clone returns a deep copy of the controller's state for what-if
// evaluation.
func (c *Controller) Clone() *Controller {
	cp := NewController(c.NodeID, c.wanOrder)
	cp.BuggyInconsistencyCheck = c.BuggyInconsistencyCheck
	cp.announcements = append([]PrefixAnnouncement(nil), c.announcements...)
	for w, v := range c.overrides {
		cp.overrides[w] = v
	}
	for w, v := range c.failedWANs {
		cp.failedWANs[w] = v
	}
	return cp
}
