// Package core implements the paper's primary contribution: the
// three-module OCE-helper framework — hypothesis former, hypothesis
// tester, and mitigation planner — orchestrated in an iterative loop with
// the OCE in the driver's seat.
//
// The loop shadows an on-call engineer's thought process (§4.3):
//
//  1. The hypothesis former proposes bite-sized candidate causes with
//     confidence and an explanation.
//  2. The OCE approves one to test (or the helper pre-approves a
//     high-confidence suggestion).
//  3. The hypothesis tester asks the model which tool verifies the
//     hypothesis, invokes it, and has the model interpret the output;
//     the OCE double-checks the interpretation.
//  4. Confirmed causes extend the deduction chain; when a confirmed
//     cause has a known mitigation, the mitigation planner proposes a
//     plan, both risk assessors weigh in, and only an OCE-approved plan
//     executes.
//  5. Verification closes the loop: cleared impact ends the incident,
//     anything else feeds back as evidence and the chain continues.
//
// The helper never reads incident ground truth; it observes the world
// exclusively through the toolbox.
package core

import (
	"time"

	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/obs"
)

// Config tunes the helper. Zero values select the defaults documented on
// each field.
type Config struct {
	// Beam is the number of hypotheses requested per round (default 3).
	Beam int

	// MaxRounds bounds hypothesis-test iterations before the helper
	// gives up and escalates (default 12).
	MaxRounds int

	// RiskBudget is the maximum acceptable combined risk score for a
	// mitigation plan (default 0.5).
	RiskBudget float64

	// UseQualitativeRisk enables the LLM risk opinion (default on via
	// DefaultConfig).
	UseQualitativeRisk bool

	// UseQuantitativeRisk enables the white-box what-if assessor
	// (default on via DefaultConfig).
	UseQuantitativeRisk bool

	// PreApproveConfidence: hypotheses at or above this confidence skip
	// the OCE approval latency (0 disables pre-approval). §4.3: "OCEs can
	// pre-approve certain suggestions that have high confidence and low
	// risk."
	PreApproveConfidence float64

	// PreApproveRisk: plans at or below this combined risk score skip
	// the OCE plan-approval latency (0 disables).
	PreApproveRisk float64

	// InContextRules are knowledge updates injected into every prompt —
	// the in-context adaptation path (§4.3's alternative to
	// fine-tuning).
	InContextRules []llm.InContextRule

	// EvidenceWindow caps how many evidence lines ride along in prompts
	// (default 30); the oldest fall off, as in a token-budgeted prompt.
	EvidenceWindow int

	// StallLimit is how many consecutive no-progress rounds are
	// tolerated before escalating (default 3).
	StallLimit int

	// SelfConsistency samples the model's interpretation of tool output
	// this many times and majority-votes (Wang et al., the paper's
	// self-consistency citation). 0/1 = single sample. Each extra vote
	// costs a full inference (tokens and latency); it buys robustness to
	// hallucinated verdict flips.
	SelfConsistency int

	// Resilience tunes the resilient tool-invocation path (retries,
	// circuit breaking, evidence quarantine). The zero value keeps the
	// naive invocation sequence byte-identical to builds that predate
	// fault injection; DefaultResilience() enables the full posture.
	Resilience ResilienceConfig
}

// DefaultConfig returns the paper-faithful configuration: iterative,
// both risk views on, modest pre-approval.
func DefaultConfig() Config {
	return Config{
		Beam:                 3,
		MaxRounds:            12,
		RiskBudget:           0.5,
		UseQualitativeRisk:   true,
		UseQuantitativeRisk:  true,
		PreApproveConfidence: 0.85,
		PreApproveRisk:       0.15,
		EvidenceWindow:       30,
		StallLimit:           3,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Beam <= 0 {
		c.Beam = d.Beam
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = d.MaxRounds
	}
	if c.RiskBudget <= 0 {
		c.RiskBudget = d.RiskBudget
	}
	if c.EvidenceWindow <= 0 {
		c.EvidenceWindow = d.EvidenceWindow
	}
	if c.StallLimit <= 0 {
		c.StallLimit = d.StallLimit
	}
	return c
}

// StepKind classifies the display events of a session trace: the audit
// log the paper's reliability requirement demands ("provides a reason
// for why it arrived at a particular response").
type StepKind string

// Trace step kinds.
const (
	StepHypotheses   StepKind = "hypotheses"
	StepApproval     StepKind = "approval"
	StepVeto         StepKind = "veto"
	StepTestPlanned  StepKind = "test-planned"
	StepToolInvoked  StepKind = "tool-invoked"
	StepInterpreted  StepKind = "interpreted"
	StepOCECorrected StepKind = "oce-corrected"
	StepPlanProposed StepKind = "plan-proposed"
	StepRiskAssessed StepKind = "risk-assessed"
	StepPlanRejected StepKind = "plan-rejected"
	StepExecuted     StepKind = "executed"
	StepVerified     StepKind = "verified"
	StepEscalated    StepKind = "escalated"
	StepRetry        StepKind = "retry"
	StepQuarantine   StepKind = "quarantine"
	StepBreaker      StepKind = "breaker"
	StepNote         StepKind = "note"
)

// Outcome is the result of one helper session.
type Outcome struct {
	// Mitigated is true when verification confirmed the impact cleared
	// after an executed plan.
	Mitigated bool
	// Escalated is true when the helper gave up and handed off.
	Escalated bool
	// TTM is the simulated time from incident open to mitigation (or to
	// escalation when not mitigated).
	TTM time.Duration
	// Rounds is the number of hypothesis-test iterations consumed.
	Rounds int
	// ToolCalls counts toolbox invocations.
	ToolCalls int
	// WrongMitigations counts executed plans that failed verification.
	WrongMitigations int
	// SecondaryImpact counts executed plans that measurably worsened a
	// service (the §3 "overheads of the helper's mistakes").
	SecondaryImpact int
	// PlanErrors counts plans that failed to execute (hallucinated
	// targets and similar).
	PlanErrors int
	// ToolRetries counts tool invocations re-attempted after a failure
	// (each charged backoff on the simulated clock).
	ToolRetries int
	// Quarantined counts tool results set aside as low-trust because the
	// source was degraded; the verdict became inconclusive instead of an
	// accept/reject.
	Quarantined int
	// BreakerTrips counts per-tool circuit breakers opened by repeated
	// failures.
	BreakerTrips int
	// Rerouted counts tests redirected to the monitor cross-check while
	// a breaker was open.
	Rerouted int
	// Confirmed is the deduction chain the helper validated, in order.
	Confirmed []string
	// Applied is the union of executed actions.
	Applied mitigation.Plan
	// Events is the structured session event stream, in emission order,
	// with simulated-clock timestamps: the display lines plus the
	// structural observations (hypotheses, tool dispositions, LLM costs,
	// mitigation actions). NewSessionTrace renders it.
	Events []obs.Event
	// LLMUsage aggregates model token usage for the session (§3 system
	// cost).
	LLMUsage llm.Meter
}

// DeepestConfirmed returns the last confirmed concept, or "".
func (o *Outcome) DeepestConfirmed() string {
	if len(o.Confirmed) == 0 {
		return ""
	}
	return o.Confirmed[len(o.Confirmed)-1]
}
