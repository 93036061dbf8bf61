// Package tools implements the operator toolbox the OCE-helper drives:
// diagnostic tools wrapping the telemetry substrate (PingMesh, link
// utilization, device health, counters, syslog), control-plane inspectors
// (controller state, prefix tables, recent changes), cross-checking tools
// (monitor health), knowledge tools (similar incidents) and manual steps
// (ask the customer).
//
// Each tool invocation produces structured FINDING lines ("concept=true
// key=value ...") the LLM interprets, plus target bindings ($LINK,
// $DEVICE, ...) the mitigation planner consumes. The paper's "toolbox
// abstraction" question — should tools serve raw telemetry or high-level
// insight? — is resolved here toward insight: tools do their own
// cross-checks (e.g. correlating a config push with live prefix-table
// inconsistency) and report concept-level findings, which is the design
// the paper leans toward for verifiability.
//
// Tools register in per-team registries so 100+ teams can extend the
// toolbox independently (decentralized extensibility).
package tools

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
)

// RiskClass grades what a tool can do to the production network.
type RiskClass int

// Tool risk classes.
const (
	RiskReadOnly RiskClass = iota
	RiskLow
	RiskMedium
	RiskHigh
)

// String names the risk class.
func (r RiskClass) String() string {
	switch r {
	case RiskReadOnly:
		return "read-only"
	case RiskLow:
		return "low"
	case RiskMedium:
		return "medium"
	case RiskHigh:
		return "high"
	default:
		return fmt.Sprintf("RiskClass(%d)", int(r))
	}
}

// Result is one tool invocation's output.
type Result struct {
	// Findings are structured lines ("concept=true key=value") the LLM
	// interprets against the hypothesis under test.
	Findings []string
	// Bindings map mitigation placeholders to concrete targets
	// discovered by the tool ($LINK -> link ID, ...).
	Bindings map[string]string
	// Raw is the human-readable output an OCE would see.
	Raw string
	// Degraded marks findings obtained from an unreliable source — a
	// stale cache, a corrupted pipeline, a monitor known to be flapping.
	// Resilient helpers quarantine such evidence instead of accepting or
	// rejecting hypotheses on it. The zero value (false) means trusted,
	// so tools that never set it behave exactly as before.
	Degraded bool
	// Source annotates why the result is degraded ("stale", "corrupt",
	// ...); empty for trusted results.
	Source string
}

// Tool is one toolbox entry.
type Tool interface {
	Name() string
	Description() string
	Risk() RiskClass
	// Latency is the simulated time one invocation costs.
	Latency() time.Duration
	Invoke(w *netsim.World, args map[string]string) (Result, error)
}

// Registry is the per-deployment toolbox with team ownership.
type Registry struct {
	tools map[string]Tool
	owner map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tools: make(map[string]Tool), owner: make(map[string]string)}
}

// Register adds a tool owned by team. Registering a name owned by a
// different team fails: teams must not silently override each other.
func (r *Registry) Register(team string, t Tool) error {
	if cur, ok := r.owner[t.Name()]; ok && cur != team {
		return fmt.Errorf("tools: %q is owned by team %q", t.Name(), cur)
	}
	r.tools[t.Name()] = t
	r.owner[t.Name()] = team
	return nil
}

// Get returns a tool by name.
func (r *Registry) Get(name string) (Tool, bool) {
	t, ok := r.tools[name]
	return t, ok
}

// Names lists registered tool names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.tools))
	for n := range r.tools {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner reports which team owns a tool.
func (r *Registry) Owner(name string) string { return r.owner[name] }
