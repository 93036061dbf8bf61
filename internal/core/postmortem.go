package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/incident"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/obs"
)

// timelineKinds is the subset of display events that make the postmortem
// timeline: decisions and actions, not the hypothesis churn.
var timelineKinds = map[obs.Type]bool{
	obs.Type(StepApproval):     true,
	obs.Type(StepToolInvoked):  true,
	obs.Type(StepInterpreted):  true,
	obs.Type(StepPlanProposed): true,
	obs.Type(StepRiskAssessed): true,
	obs.Type(StepPlanRejected): true,
	obs.Type(StepExecuted):     true,
	obs.Type(StepVerified):     true,
	obs.Type(StepEscalated):    true,
	obs.Type(StepOCECorrected): true,
	obs.Type(StepVeto):         true,
}

// PostmortemCosts is the §3 bookkeeping block of a postmortem: system
// cost (tool and model usage, dollars) and the mistake overheads.
type PostmortemCosts struct {
	ToolCalls        int
	LLMCalls         int
	Tokens           int
	CostUSD          float64
	WrongMitigations int
	SecondaryImpact  int
	PlanErrors       int
}

// PostmortemReport is a structured incident review built from a
// completed session: identity, outcome, validated deduction chain,
// decision timeline, costs and derived follow-ups. String renders the
// markdown review the CLI has always printed; callers that want the data
// (dashboards, regression baselines) read the fields directly.
//
// The paper's §1 lists "generate human-like written content" among the
// LLM abilities that make OCE-helpers feasible; this generator is
// deterministic and template-based so reviews are reproducible — a
// production deployment would have the model draft prose over the same
// structure.
type PostmortemReport struct {
	// Incident identity.
	Title    string
	ID       string
	Severity int
	OpenedAt time.Duration

	// Outcome summary.
	Mitigated bool
	Escalated bool
	TTM       time.Duration
	Rounds    int
	Applied   mitigation.Plan
	// Deductions is the validated deduction chain, in confirmation order.
	Deductions []string

	// Timeline is the decision/action subset of the session events.
	Timeline []obs.Event

	Costs PostmortemCosts

	// FollowUps are action items derived from what went wrong.
	FollowUps []string
}

// NewPostmortem builds the structured review from a completed session.
func NewPostmortem(inc *incident.Incident, out *Outcome) *PostmortemReport {
	p := &PostmortemReport{
		Title:      inc.Title,
		ID:         inc.ID,
		Severity:   inc.Severity,
		OpenedAt:   inc.OpenedAt,
		Mitigated:  out.Mitigated,
		Escalated:  out.Escalated,
		TTM:        out.TTM,
		Rounds:     out.Rounds,
		Applied:    out.Applied,
		Deductions: append([]string(nil), out.Confirmed...),
		Costs: PostmortemCosts{
			ToolCalls:        out.ToolCalls,
			LLMCalls:         out.LLMUsage.Calls,
			Tokens:           out.LLMUsage.Prompt + out.LLMUsage.Completion,
			CostUSD:          out.LLMUsage.DollarCost(llm.DefaultPricing()),
			WrongMitigations: out.WrongMitigations,
			SecondaryImpact:  out.SecondaryImpact,
			PlanErrors:       out.PlanErrors,
		},
		FollowUps: followUps(out),
	}
	for _, e := range out.Events {
		if timelineKinds[e.Type] {
			p.Timeline = append(p.Timeline, e)
		}
	}
	return p
}

// String renders the markdown review, byte-identical to the historical
// string-returning generator.
func (p *PostmortemReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Postmortem: %s\n\n", p.Title)
	fmt.Fprintf(&b, "Incident %s, severity %d, opened at T+%s.\n\n", p.ID, p.Severity, fmtDur(p.OpenedAt))

	b.WriteString("## Outcome\n\n")
	switch {
	case p.Mitigated:
		fmt.Fprintf(&b, "Mitigated in %s over %d hypothesis-test rounds.\n", fmtDur(p.TTM), p.Rounds)
	case p.Escalated:
		fmt.Fprintf(&b, "Escalated after %s and %d rounds without a validated mitigation.\n", fmtDur(p.TTM), p.Rounds)
	default:
		fmt.Fprintf(&b, "Session ended unresolved after %s.\n", fmtDur(p.TTM))
	}
	if len(p.Applied.Actions) > 0 {
		fmt.Fprintf(&b, "Applied mitigation: %s.\n", p.Applied)
	}
	if len(p.Deductions) > 0 {
		fmt.Fprintf(&b, "Validated deduction chain: %s.\n", strings.Join(p.Deductions, " <- "))
	}
	b.WriteString("\n## Timeline\n\n")
	for _, e := range p.Timeline {
		fmt.Fprintf(&b, "- T+%s (round %d) %s: %s\n", fmtDur(e.At), e.Round, e.Type, e.Detail)
	}

	b.WriteString("\n## Costs and mistakes\n\n")
	fmt.Fprintf(&b, "- tool invocations: %d\n", p.Costs.ToolCalls)
	fmt.Fprintf(&b, "- LLM calls: %d (%d tokens)\n", p.Costs.LLMCalls, p.Costs.Tokens)
	fmt.Fprintf(&b, "- mitigations executed but insufficient: %d\n", p.Costs.WrongMitigations)
	fmt.Fprintf(&b, "- mitigations that worsened a service: %d\n", p.Costs.SecondaryImpact)
	fmt.Fprintf(&b, "- plans that failed to execute: %d\n", p.Costs.PlanErrors)

	b.WriteString("\n## Follow-ups\n\n")
	for _, f := range p.FollowUps {
		fmt.Fprintf(&b, "- %s\n", f)
	}
	return b.String()
}

// followUps derives action items from what went wrong in the session.
func followUps(out *Outcome) []string {
	var fs []string
	if out.Escalated && !out.Mitigated {
		fs = append(fs, "the knowledge base could not explain this incident: capture the specialist team's resolution as causal rules")
	}
	if out.WrongMitigations > 0 {
		fs = append(fs, "review why executed mitigations failed verification; consider tightening the what-if gate")
	}
	if out.SecondaryImpact > 0 {
		fs = append(fs, "a mitigation worsened a service: audit the risk assessment that approved it")
	}
	if out.PlanErrors > 0 {
		fs = append(fs, "plans failed mid-execution (bad targets): review planner bindings and model hallucination rate")
	}
	if out.Mitigated && out.Rounds > 6 {
		fs = append(fs, "resolution took many rounds: consider a TSG or pre-approval for this incident class")
	}
	if len(fs) == 0 {
		fs = append(fs, "none: clean single-chain resolution")
	}
	return fs
}

func fmtDur(d time.Duration) string { return d.Truncate(time.Second).String() }
