package netsim

import (
	"fmt"
	"maps"
	"slices"
	"time"
)

// Severity grades syslog events.
type Severity int

// Syslog severities, lowest to highest.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
	SevCritical
)

// String returns the conventional severity name.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "INFO"
	case SevWarning:
		return "WARN"
	case SevError:
		return "ERROR"
	case SevCritical:
		return "CRIT"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// SyslogEvent is one device log line. The syslog monitor exposes these to
// the helper's tools.
type SyslogEvent struct {
	At       time.Duration
	Node     NodeID
	Severity Severity
	Message  string
}

// Trigger is a latent condition that converts traffic state into device
// state — e.g. the novel-protocol bug that wedges any device forwarding a
// flow with a particular header pattern. Triggers fire during Recompute's
// fixed-point iteration.
type Trigger interface {
	ID() string
	// Fire inspects the routing outcome and mutates the world (device
	// health, logs). It reports whether it changed routable state, in
	// which case routing is recomputed and triggers run again.
	Fire(w *World, rep *TrafficReport) bool
}

// World ties the network, controller, traffic, change log and fault state
// into one simulation. All experiment harnesses operate on a World.
type World struct {
	Net      *Network
	Clock    *Clock
	Ctl      *Controller
	Backbone *Backbone
	Changes  *ChangeLog

	// BrokenMonitors names telemetry monitors currently malfunctioning;
	// the telemetry package consults it when sampling.
	BrokenMonitors map[string]bool

	// ServiceBaseline records each service's provisioned demand in Gbps,
	// snapshotted at deployment time. Monitors compare live demand
	// against it to tell a genuine surge from rerouted load.
	ServiceBaseline map[string]float64

	// LatencyBaseline records each service's worst path latency (ms) in
	// the healthy deployment; latency SLO checks compare against it.
	LatencyBaseline map[string]float64

	// Attachments carries cross-layer handles (e.g. the telemetry
	// recorder) without netsim depending on the layers above. Clones do
	// not inherit attachments; forks inherit those that implement
	// Attachment.
	Attachments map[string]any

	flows    []*Flow
	events   []SyslogEvent
	triggers map[string]Trigger
	trigIDs  []string // sorted trigger IDs, rebuilt on trigger changes
	faults   map[string]Fault
	report   *TrafficReport

	// engine is this world's persistent traffic engine: it owns the
	// report slabs and re-derives only what changed between recomputes.
	// Clones and forks start theirs warm from this one (see
	// trafficEngine.warm): their first pass is incremental unless this
	// world recomputes first.
	engine trafficEngine

	schedule []scheduledEvent
}

// scheduledEvent is a pending timed world mutation.
type scheduledEvent struct {
	at    time.Duration
	apply func(*World)
}

// NewWorld assembles a world. Controller and backbone may be nil for
// single-fabric simulations.
func NewWorld(net *Network, ctl *Controller, bb *Backbone) *World {
	w := &World{
		Net:             net,
		Clock:           NewClock(),
		Ctl:             ctl,
		Backbone:        bb,
		Changes:         NewChangeLog(),
		BrokenMonitors:  make(map[string]bool),
		ServiceBaseline: make(map[string]float64),
		LatencyBaseline: make(map[string]float64),
		Attachments:     make(map[string]any),
		triggers:        make(map[string]Trigger),
		faults:          make(map[string]Fault),
	}
	w.Clock.OnAdvance(w.runSchedule)
	return w
}

// ScheduleAt queues a world mutation to run when the simulated clock
// first reaches (or passes) at. Scenarios use this for evolving
// incidents — faults that flare, toggle or resolve while responders
// work.
func (w *World) ScheduleAt(at time.Duration, apply func(*World)) {
	w.schedule = append(w.schedule, scheduledEvent{at: at, apply: apply})
	slices.SortStableFunc(w.schedule, func(a, b scheduledEvent) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
}

// runSchedule fires every due event; registered as a clock hook.
func (w *World) runSchedule(now time.Duration) {
	fired := 0
	for _, ev := range w.schedule {
		if ev.at > now {
			break
		}
		ev.apply(w)
		fired++
	}
	if fired > 0 {
		w.schedule = w.schedule[fired:]
		w.report = nil
	}
}

// SnapshotBaselines records the current per-service demand and worst
// path latency as the provisioned baselines. It computes traffic if
// needed.
func (w *World) SnapshotBaselines() {
	w.ServiceBaseline = make(map[string]float64)
	for _, f := range w.flows {
		w.ServiceBaseline[f.Service] += f.DemandGbps
	}
	w.LatencyBaseline = make(map[string]float64)
	for svc, ss := range w.Report().ServiceStats {
		w.LatencyBaseline[svc] = ss.MaxLatency
	}
}

// ServiceDemand reports the current total demand of a service.
func (w *World) ServiceDemand(service string) float64 {
	var total float64
	for _, f := range w.flows {
		if f.Service == service {
			total += f.DemandGbps
		}
	}
	return total
}

// AddFlows appends traffic demands and invalidates the cached report.
func (w *World) AddFlows(flows ...*Flow) {
	w.flows = append(w.flows, flows...)
	w.report = nil
}

// Flows returns the live flow set (callers must not mutate demand without
// calling Invalidate).
func (w *World) Flows() []*Flow { return w.flows }

// Invalidate discards the cached traffic report; the next Report call
// recomputes. Mutations performed through faults and tools call this.
func (w *World) Invalidate() { w.report = nil }

// Logf appends a syslog event at the current simulated time.
func (w *World) Logf(node NodeID, sev Severity, format string, args ...any) {
	w.events = append(w.events, SyslogEvent{
		At:       w.Clock.Now(),
		Node:     node,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Events returns all syslog events in time order.
func (w *World) Events() []SyslogEvent {
	out := append([]SyslogEvent(nil), w.events...)
	slices.SortStableFunc(out, func(a, b SyslogEvent) int {
		switch {
		case a.At < b.At:
			return -1
		case a.At > b.At:
			return 1
		}
		return 0
	})
	return out
}

// EventsSince returns events at or after t.
func (w *World) EventsSince(t time.Duration) []SyslogEvent {
	var out []SyslogEvent
	for _, e := range w.Events() {
		if e.At >= t {
			out = append(out, e)
		}
	}
	return out
}

// AddTrigger installs a latent trigger.
func (w *World) AddTrigger(t Trigger) {
	w.triggers[t.ID()] = t
	w.trigIDs = nil
	w.report = nil
}

// RemoveTrigger uninstalls a trigger by ID.
func (w *World) RemoveTrigger(id string) {
	delete(w.triggers, id)
	w.trigIDs = nil
	w.report = nil
}

// maxRecomputeRounds bounds the trigger fixed-point: each round a trigger
// may wedge more devices (as in the Tokyo incident, where traffic moving
// off a failed device wedged the next one).
const maxRecomputeRounds = 8

// Recompute routes all traffic under the controller's current policy,
// fires triggers, and iterates to a fixed point. It returns (and caches)
// the final traffic report.
func (w *World) Recompute() *TrafficReport {
	if w.trigIDs == nil && len(w.triggers) > 0 {
		// Deterministic trigger order, rebuilt only when the set changes.
		w.trigIDs = make([]string, 0, len(w.triggers))
		for id := range w.triggers {
			w.trigIDs = append(w.trigIDs, id)
		}
		slices.Sort(w.trigIDs)
	}
	for round := 0; ; round++ {
		if w.Ctl != nil {
			w.Ctl.Evaluate()
		}
		var sel PathSelector
		if w.Ctl != nil {
			sel = w.Ctl
		}
		rep := w.engine.route(w.Net, w.flows, sel)
		changed := false
		for _, id := range w.trigIDs {
			if w.triggers[id].Fire(w, rep) {
				changed = true
			}
		}
		if !changed || round >= maxRecomputeRounds {
			w.report = rep
			return rep
		}
	}
}

// Report returns the cached traffic report, recomputing if state changed
// since the last computation.
func (w *World) Report() *TrafficReport {
	if w.report == nil {
		return w.Recompute()
	}
	return w.report
}

// Inject applies a fault and records it as active.
func (w *World) Inject(f Fault) {
	f.Apply(w)
	w.faults[f.ID()] = f
	w.report = nil
}

// Resolve reverts an active fault by ID; it is a no-op for unknown IDs.
func (w *World) Resolve(id string) {
	f, ok := w.faults[id]
	if !ok {
		return
	}
	f.Revert(w)
	delete(w.faults, id)
	w.report = nil
}

// FaultActive reports whether the fault with the given ID is unresolved.
func (w *World) FaultActive(id string) bool { _, ok := w.faults[id]; return ok }

// Attachment is implemented by World.Attachments values that follow
// their world into forks. Fork drops attachments that do not implement
// it, as Clone drops every attachment.
type Attachment interface {
	// ForkFor returns this attachment's copy bound to the fork w, as if
	// it had been attached to w when w was built. It must only read the
	// receiver.
	ForkFor(w *World) any
}

// Clone returns a what-if copy of the world. The network is a
// copy-on-write snapshot that shares the route cache with w (see
// Network.Clone); flows are slab-copied because mitigations mutate them
// in place; controller, broken monitors, baselines, triggers, faults,
// the change log and the syslog are copied. The copy starts with no
// traffic report, no scheduled events and no attachments: risk
// assessment only recomputes and reads it. Mutating the clone never
// affects the original — the risk assessor relies on this to evaluate
// candidate mitigations safely.
func (w *World) Clone() *World { return w.copyWorld(w.Net.Clone(), false) }

// Fork returns an independent copy of the world that is observationally
// identical to w: everything Clone copies, plus the scheduled events, a
// copy of the traffic report over the fork's own flows, attachments
// that implement Attachment, and a private copy of the route cache with
// its entries. w.Net must be shared (Network.Share); Fork
// then only reads w, so a template world may be forked from many
// goroutines at once. The template itself must never be mutated.
func (w *World) Fork() *World { return w.copyWorld(w.Net.Fork(), true) }

// copyWorld is the copy body of Clone and Fork over net, a copy of
// w.Net. fork selects the state only Fork carries over.
func (w *World) copyWorld(net *Network, fork bool) *World {
	var ctl *Controller
	if w.Ctl != nil {
		ctl = w.Ctl.Clone()
	}
	c := NewWorld(net, ctl, w.Backbone)
	c.Clock.now = w.Clock.now
	if len(w.flows) > 0 {
		slab := make([]Flow, len(w.flows))
		c.flows = make([]*Flow, len(w.flows))
		for i, f := range w.flows {
			slab[i] = *f
			// Copy any non-nil Attrs map: MoveService writes into a
			// flow's Attrs, and even an empty map must not be aliased.
			if f.Attrs != nil {
				slab[i].Attrs = maps.Clone(f.Attrs)
			}
			c.flows[i] = &slab[i]
		}
	}
	maps.Copy(c.BrokenMonitors, w.BrokenMonitors)
	maps.Copy(c.ServiceBaseline, w.ServiceBaseline)
	maps.Copy(c.LatencyBaseline, w.LatencyBaseline)
	maps.Copy(c.triggers, w.triggers)
	maps.Copy(c.faults, w.faults)
	c.Changes = w.Changes.Clone()
	c.events = append(c.events, w.events...)
	c.engine.src, c.engine.srcPass = &w.engine, w.engine.pass
	if !fork {
		return c
	}
	c.schedule = slices.Clone(w.schedule)
	c.report = w.report.forkTo(c.flows)
	// Attachments register their clock hooks after the world's own
	// schedule hook, as on a fresh build; key order keeps it
	// deterministic when there are several.
	for _, k := range slices.Sorted(maps.Keys(w.Attachments)) {
		if a, ok := w.Attachments[k].(Attachment); ok {
			c.Attachments[k] = a.ForkFor(c)
		}
	}
	return c
}
