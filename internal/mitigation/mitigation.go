// Package mitigation defines the action vocabulary operators use to
// mitigate incidents, an executor that applies actions to the simulated
// world, and a verifier that checks (via ground-truth traffic state)
// whether the incident's impact is gone.
//
// Actions are the currency between the helper's mitigation planner, the
// risk assessor (which evaluates candidate actions on a cloned world),
// and the OCE (who approves and triggers execution). The paper's §4.4
// critique of prior risk work — "they consider a small set of mitigations
// compared to the full breadth of what operators can use" — is why the
// vocabulary here is broad: isolation, de-isolation, restarts, controller
// overrides, config rollbacks, protocol kill switches, traffic moves,
// rate limits, monitor repairs and escalation.
package mitigation

import (
	"fmt"
	"time"

	"repro/internal/netsim"
)

// ActionKind enumerates mitigation primitives.
type ActionKind string

// The mitigation vocabulary.
const (
	IsolateLink      ActionKind = "isolate-link"     // Target: link ID
	DeisolateLink    ActionKind = "deisolate-link"   // Target: link ID
	IsolateDevice    ActionKind = "isolate-device"   // Target: node ID
	DeisolateDevice  ActionKind = "deisolate-device" // Target: node ID
	RestartDevice    ActionKind = "restart-device"   // Target: node ID
	RollbackChange   ActionKind = "rollback-change"  // Target: change record ID
	DisableProtocol  ActionKind = "disable-protocol" // Target: protocol name; Param: optional WAN scope
	EnableProtocol   ActionKind = "enable-protocol"  // Target: protocol name
	OverrideWAN      ActionKind = "override-wan"     // Target: WAN name; Param: "healthy"|"failed"
	MoveService      ActionKind = "move-service"     // Target: service; Param: WAN name to pin
	RateLimitService ActionKind = "rate-limit"       // Target: service; Param: fraction kept, e.g. "0.5"
	RepairMonitor    ActionKind = "repair-monitor"   // Target: monitor name
	Escalate         ActionKind = "escalate"         // Target: team name
	NoOp             ActionKind = "no-op"
)

// Action is one mitigation step.
type Action struct {
	Kind   ActionKind
	Target string
	Param  string
}

// String renders the action compactly for traces and reports.
func (a Action) String() string {
	if a.Param != "" {
		return fmt.Sprintf("%s(%s,%s)", a.Kind, a.Target, a.Param)
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Target)
}

// Matches reports whether a satisfies the requirement r: kinds must
// match; an empty requirement Target or Param acts as a wildcard.
// Kind-only requirements let callers condition on a mitigation *class*
// (the §3 conditional TTM estimator does).
func (a Action) Matches(r Action) bool {
	if a.Kind != r.Kind {
		return false
	}
	if r.Target != "" && r.Target != a.Target {
		return false
	}
	return r.Param == "" || r.Param == a.Param
}

// Plan is an ordered mitigation proposal.
type Plan struct {
	Actions []Action
}

// String lists the plan's actions.
func (p Plan) String() string {
	s := ""
	for i, a := range p.Actions {
		if i > 0 {
			s += "; "
		}
		s += a.String()
	}
	return s
}

// Satisfies reports whether the plan contains actions matching every
// requirement in need (in any order).
func (p Plan) Satisfies(need []Action) bool {
	for _, req := range need {
		ok := false
		for _, a := range p.Actions {
			if a.Matches(req) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// ExecLatency is the simulated time each action kind costs to execute.
// Drastic actions take longer (automation + safety checks + propagation).
var ExecLatency = map[ActionKind]time.Duration{
	IsolateLink:      3 * time.Minute,
	DeisolateLink:    3 * time.Minute,
	IsolateDevice:    4 * time.Minute,
	DeisolateDevice:  4 * time.Minute,
	RestartDevice:    6 * time.Minute,
	RollbackChange:   8 * time.Minute,
	DisableProtocol:  5 * time.Minute,
	EnableProtocol:   5 * time.Minute,
	OverrideWAN:      2 * time.Minute,
	MoveService:      4 * time.Minute,
	RateLimitService: 3 * time.Minute,
	RepairMonitor:    10 * time.Minute,
	Escalate:         15 * time.Minute,
	NoOp:             0,
}

// Latency returns the execution latency for the action.
func (a Action) Latency() time.Duration { return ExecLatency[a.Kind] }

// Executor applies actions to a world. It records every execution in the
// change log (mitigations are changes too) and advances the clock by the
// action latency when Clocked is true.
type Executor struct {
	World   *netsim.World
	Clocked bool   // advance simulated time per action
	Actor   string // recorded in the change log ("oce", "helper", ...)

	// FailOn, when non-nil, is consulted before each action touches the
	// world; a non-nil return aborts the action with that error. Fault
	// injection hooks in here to simulate mitigation automation breaking
	// mid-plan. The action's latency is still charged — broken automation
	// burns the time before it reports failure.
	FailOn func(Action) error
}

// Execute applies one action. It returns an error for malformed targets;
// a well-formed action on an odd state (e.g. restarting a healthy device)
// succeeds as a no-op, as real automation does.
func (e *Executor) Execute(a Action) error {
	w := e.World
	if e.Clocked {
		w.Clock.Advance(a.Latency())
	}
	if e.FailOn != nil {
		if err := e.FailOn(a); err != nil {
			return err
		}
	}
	defer w.Invalidate()

	record := func() {
		w.Changes.Add(netsim.ChangeRecord{
			At: w.Clock.Now(), Team: e.Actor, Kind: netsim.ChangeMitigation,
			Description: a.String(),
		})
	}

	switch a.Kind {
	case IsolateLink, DeisolateLink:
		l := w.Net.MutLink(netsim.LinkID(a.Target))
		if l == nil {
			return fmt.Errorf("mitigation: unknown link %q", a.Target)
		}
		l.Isolated = a.Kind == IsolateLink
		record()
	case IsolateDevice, DeisolateDevice:
		nd := w.Net.MutNode(netsim.NodeID(a.Target))
		if nd == nil {
			return fmt.Errorf("mitigation: unknown device %q", a.Target)
		}
		nd.Isolated = a.Kind == IsolateDevice
		record()
	case RestartDevice:
		nd := w.Net.MutNode(netsim.NodeID(a.Target))
		if nd == nil {
			return fmt.Errorf("mitigation: unknown device %q", a.Target)
		}
		nd.Healthy = true
		w.Logf(nd.ID, netsim.SevInfo, "device restarted by %s", e.Actor)
		record()
	case RollbackChange:
		var rec *netsim.ChangeRecord
		for _, r := range w.Changes.All() {
			if r.ID == a.Target {
				rr := r
				rec = &rr
				break
			}
		}
		if rec == nil {
			return fmt.Errorf("mitigation: unknown change %q", a.Target)
		}
		// Rolling back a change resolves the faults it introduced.
		if fid := rec.Details["fault_id"]; fid != "" {
			w.Resolve(fid)
		}
		record()
	case DisableProtocol, EnableProtocol:
		enable := a.Kind == EnableProtocol
		for _, nd := range w.Net.Nodes() {
			if a.Param != "" && nd.WANName != a.Param {
				continue
			}
			// Skip nodes the write wouldn't change, so a no-op toggle
			// doesn't copy-on-write every node in the fleet.
			if cur, has := nd.Protocols[a.Target]; (has || enable) && cur != enable {
				w.Net.MutNode(nd.ID).Protocols[a.Target] = enable
			}
		}
		record()
	case OverrideWAN:
		if w.Ctl == nil {
			return fmt.Errorf("mitigation: no traffic controller in this world")
		}
		switch a.Param {
		case "healthy":
			w.Ctl.Override(a.Target, true)
		case "failed":
			w.Ctl.Override(a.Target, false)
		case "clear":
			w.Ctl.ClearOverride(a.Target)
		default:
			return fmt.Errorf("mitigation: override-wan param %q must be healthy|failed|clear", a.Param)
		}
		record()
	case MoveService:
		for _, f := range w.Flows() {
			if f.Service == a.Target {
				if f.Attrs == nil {
					f.Attrs = make(map[string]string)
				}
				f.Attrs["wan"] = a.Param
			}
		}
		record()
	case RateLimitService:
		frac, err := parseFraction(a.Param)
		if err != nil {
			return fmt.Errorf("mitigation: rate-limit param: %w", err)
		}
		for _, f := range w.Flows() {
			if f.Service == a.Target {
				f.DemandGbps *= frac
			}
		}
		record()
	case RepairMonitor:
		w.Resolve("monitor-broken:" + a.Target)
		record()
	case Escalate:
		w.Logf("incident-manager", netsim.SevWarning, "escalated to %s by %s", a.Target, e.Actor)
		record()
	case NoOp:
	default:
		return fmt.Errorf("mitigation: unknown action kind %q", a.Kind)
	}
	return nil
}

// ExecutePlan applies every action in the plan, stopping at the first
// error.
func (e *Executor) ExecutePlan(p Plan) error {
	for _, a := range p.Actions {
		if err := e.Execute(a); err != nil {
			return err
		}
	}
	return nil
}

func parseFraction(s string) (float64, error) {
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
		return 0, fmt.Errorf("bad fraction %q", s)
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("fraction %v outside [0,1]", f)
	}
	return f, nil
}

// Verifier checks whether the incident impact is gone after mitigation.
type Verifier struct {
	World *netsim.World
}

// lossBudget is the residual demand-weighted loss considered mitigated
// (SLAs tolerate small residuals).
const lossBudget = 0.005

// Mitigated recomputes traffic and reports whether every service's loss
// is within budget and no device is wedged-unhealthy (isolated devices
// are fine: isolation is a legitimate mitigation). Checking per service
// rather than in aggregate matters: a small service blackholed behind
// huge bulk flows barely moves the overall rate.
func (v *Verifier) Mitigated() bool {
	rep := v.World.Recompute()
	if rep.OverallLossRate() > lossBudget {
		return false
	}
	for svc, ss := range rep.ServiceStats {
		if ss.LossRate > lossBudget {
			return false
		}
		// Latency SLO: a mitigation that leaves a service far above its
		// baseline latency has not cleared the impact.
		if base := v.World.LatencyBaseline[svc]; base > 0 && ss.MaxLatency > 1.5*base+1 {
			return false
		}
	}
	for _, nd := range v.World.Net.Nodes() {
		if !nd.Healthy && !nd.Isolated {
			return false
		}
	}
	return true
}
