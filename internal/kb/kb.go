// Package kb implements the operator knowledge base: the concept
// vocabulary shared by incidents, telemetry and the helper; causal rules
// linking concepts ("link overload causes packet loss"); troubleshooting
// guides (TSGs); and the component registry.
//
// The knowledge base is versioned. A helper holding an old version is
// the paper's "stale iterative helper" (Fig. 3): when operators deploy a
// new protocol they append rules describing its behaviour — not
// end-to-end incident samples — and only helpers that pick up the new
// version can reason their way to the novel root cause.
//
// Rules and TSGs carry a Team so 100+ independent teams can extend their
// slice of the knowledge base without coordinating (the paper's
// "decentralized extensibility" perspective).
package kb

import (
	"fmt"
	"sort"

	"repro/internal/mitigation"
)

// Concept describes one cause-or-symptom the system can reason about.
type Concept struct {
	ID          string
	Description string

	// Prior is the base rate of this concept being the active cause,
	// used by hypothesis scoring. Symptom-only concepts have 0.
	Prior float64

	// TestTool names the toolbox tool that can confirm or reject a
	// hypothesis that this concept is occurring ("" when no direct test
	// exists and the tester must rely on indirect evidence).
	TestTool string

	// Mitigations are action templates addressing this concept as a
	// cause. Targets may contain placeholders ($LINK, $DEVICE, $WAN,
	// $CHANGE, $PROTOCOL, $SERVICE, $MONITOR) that the planner binds
	// from evidence.
	Mitigations []mitigation.Action
}

// Rule is one causal edge: Cause makes Effect likely with the given
// strength (an operator-calibrated P(effect|cause) proxy).
type Rule struct {
	ID       string
	Cause    string
	Effect   string
	Strength float64
	Team     string
	Note     string

	// AddedVersion is the KB version that introduced the rule.
	AddedVersion int
}

// TSGStepKind distinguishes query, action and decision steps in a guide.
type TSGStepKind int

// TSG step kinds.
const (
	TSGQuery TSGStepKind = iota
	TSGAction
	TSGVerify
)

// TSGStep is one step of a troubleshooting guide.
type TSGStep struct {
	Kind   TSGStepKind
	Desc   string
	Tool   string            // for TSGQuery
	Args   map[string]string // tool arguments
	Action mitigation.Action // for TSGAction
}

// TSG is a troubleshooting guide: the scripted procedure operators follow
// for well-understood incident classes.
type TSG struct {
	ID      string
	Title   string
	Symptom string // concept the guide applies to
	Team    string
	Version int // bumped on every revision; §3's management-cost model counts these
	Steps   []TSGStep
}

// Component is an entry in the component registry: what exists, who owns
// it, and what it depends on. The qualitative risk assessor walks the
// dependency graph.
type Component struct {
	Name      string
	Kind      string
	Team      string
	DependsOn []string
	Notes     string
}

// KB is the versioned knowledge store.
type KB struct {
	version    int
	concepts   map[string]Concept
	rules      map[string]Rule
	byEffect   map[string][]string // effect -> rule IDs
	byCause    map[string][]string
	tsgs       map[string]*TSG
	components map[string]Component
	history    *History
}

// New returns an empty knowledge base at version 1.
func New() *KB {
	return &KB{
		version:    1,
		concepts:   make(map[string]Concept),
		rules:      make(map[string]Rule),
		byEffect:   make(map[string][]string),
		byCause:    make(map[string][]string),
		tsgs:       make(map[string]*TSG),
		components: make(map[string]Component),
		history:    NewHistory(),
	}
}

// Version reports the current KB version.
func (k *KB) Version() int { return k.version }

// Bump advances the KB version and returns the new value. Teams bump the
// version when they land a batch of updates (a rollout, a postmortem).
func (k *KB) Bump() int {
	k.version++
	return k.version
}

// AddConcept registers (or replaces) a concept.
func (k *KB) AddConcept(c Concept) {
	if c.ID == "" {
		panic("kb: concept with empty ID")
	}
	k.concepts[c.ID] = c
}

// ConceptByID returns the concept and whether it exists.
func (k *KB) ConceptByID(id string) (Concept, bool) {
	c, ok := k.concepts[id]
	return c, ok
}

// Concepts returns all concept IDs, sorted.
func (k *KB) Concepts() []string {
	out := make([]string, 0, len(k.concepts))
	for id := range k.concepts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AddRule registers a causal rule at the current KB version. Both cause
// and effect concepts must exist — rules against unknown concepts are a
// team's extension bug and fail loudly.
func (k *KB) AddRule(r Rule) {
	if r.ID == "" {
		r.ID = fmt.Sprintf("rule:%s->%s", r.Cause, r.Effect)
	}
	if _, ok := k.concepts[r.Cause]; !ok {
		panic(fmt.Sprintf("kb: rule %s references unknown cause %q", r.ID, r.Cause))
	}
	if _, ok := k.concepts[r.Effect]; !ok {
		panic(fmt.Sprintf("kb: rule %s references unknown effect %q", r.ID, r.Effect))
	}
	if r.Strength <= 0 || r.Strength > 1 {
		panic(fmt.Sprintf("kb: rule %s strength %v outside (0,1]", r.ID, r.Strength))
	}
	if r.AddedVersion == 0 {
		r.AddedVersion = k.version
	}
	if _, exists := k.rules[r.ID]; !exists {
		k.byEffect[r.Effect] = append(k.byEffect[r.Effect], r.ID)
		k.byCause[r.Cause] = append(k.byCause[r.Cause], r.ID)
	}
	k.rules[r.ID] = r
}

// CausesOf returns rules whose effect is the given concept, sorted by
// descending strength then ID — the hypothesis former's raw material.
func (k *KB) CausesOf(effect string) []Rule {
	return k.sortedRules(k.byEffect[effect])
}

func (k *KB) sortedRules(ids []string) []Rule {
	out := make([]Rule, 0, len(ids))
	for _, id := range ids {
		out = append(out, k.rules[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Strength != out[j].Strength {
			return out[i].Strength > out[j].Strength
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Rules returns every rule sorted by ID.
func (k *KB) Rules() []Rule {
	ids := make([]string, 0, len(k.rules))
	for id := range k.rules {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Rule, 0, len(ids))
	for _, id := range ids {
		out = append(out, k.rules[id])
	}
	return out
}

// TeamRules returns the rules a team owns, sorted by ID.
func (k *KB) TeamRules(team string) []Rule {
	var out []Rule
	for _, r := range k.Rules() {
		if r.Team == team {
			out = append(out, r)
		}
	}
	return out
}

// AddTSG registers a troubleshooting guide.
func (k *KB) AddTSG(t *TSG) {
	if t.ID == "" {
		panic("kb: TSG with empty ID")
	}
	if t.Version == 0 {
		t.Version = 1
	}
	k.tsgs[t.ID] = t
}

// TSGForSymptom returns guides applying to the symptom concept, sorted by ID.
func (k *KB) TSGForSymptom(symptom string) []*TSG {
	var out []*TSG
	for _, t := range k.tsgs {
		if t.Symptom == symptom {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddComponent registers a component.
func (k *KB) AddComponent(c Component) { k.components[c.Name] = c }

// ComponentByName returns a component by name.
func (k *KB) ComponentByName(name string) (Component, bool) {
	c, ok := k.components[name]
	return c, ok
}

// Dependents returns components that (transitively do not; directly do)
// depend on the named component, sorted — the qualitative risk walk.
func (k *KB) Dependents(name string) []Component {
	var out []Component
	for _, c := range k.components {
		for _, d := range c.DependsOn {
			if d == name {
				out = append(out, c)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// History exposes the incident history store attached to this KB.
func (k *KB) History() *History { return k.history }

// Mitigations returns the mitigation templates for a cause concept.
func (k *KB) Mitigations(concept string) []mitigation.Action {
	c, ok := k.concepts[concept]
	if !ok {
		return nil
	}
	return append([]mitigation.Action(nil), c.Mitigations...)
}
