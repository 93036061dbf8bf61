package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/risk"
	"repro/internal/tools"
)

// Helper wires the three modules together over a model, a toolbox and
// the risk assessors.
type Helper struct {
	Model llm.Model
	Tools *tools.Registry
	// Quant is the white-box what-if assessor; nil (or
	// Config.UseQuantitativeRisk=false) disables the quantitative view.
	Quant  *risk.Assessor
	Config Config
	// ActionFaults, when non-nil, simulates mitigation automation
	// breaking mid-plan: every executed action is vetted through it
	// first. The harness wires the fault injector in here.
	ActionFaults ActionFaults
	// Obs, when non-nil, receives every session event live (in addition
	// to the Outcome.Events buffer, which is always populated). Nil is a
	// true no-op: behaviour and output are byte-identical either way.
	Obs obs.Observer
}

// verifyLatency is the simulated cost of one verification pass (watching
// dashboards settle after a mitigation).
const verifyLatency = 2 * time.Minute

// fumbleLatency is the time wasted when the model proposes a tool that
// does not exist.
const fumbleLatency = 2 * time.Minute

// stabilityWindow is how long a cleared incident is watched before it is
// declared mitigated; it catches intermittent faults sampled in a quiet
// phase.
const stabilityWindow = 6 * time.Minute

// session carries one run's mutable state.
type session struct {
	h   *Helper
	w   *netsim.World
	inc *incident.Incident
	oce *OCE
	cfg Config

	ctx       llm.PromptContext
	chain     []string // append-only confirmation history
	attempted map[string]bool
	breaker   map[string]*breakerState // per-tool circuit breakers
	out       *Outcome
	round     int
	stalls    int
	repasses  int
}

// Run drives one incident end to end and returns the outcome. The
// helper observes the world only through tools; it never touches
// incident ground truth.
func (h *Helper) Run(w *netsim.World, inc *incident.Incident, oce *OCE) *Outcome {
	cfg := h.Config.withDefaults()
	s := &session{
		h: h, w: w, inc: inc, oce: oce, cfg: cfg,
		attempted: map[string]bool{},
		breaker:   map[string]*breakerState{},
		out:       &Outcome{},
	}
	s.ctx = llm.PromptContext{
		Symptoms: append([]string(nil), inc.Symptoms...),
		Bindings: map[string]string{},
		Rules:    cfg.InContextRules,
	}
	s.addEvidence("incident: " + inc.Title)
	for _, line := range strings.Split(inc.Summary, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			s.addEvidence(line)
		}
	}

	for s.round = 1; s.round <= cfg.MaxRounds; s.round++ {
		s.out.Rounds = s.round
		progressed, done := s.iterate()
		if done {
			s.out.TTM = w.Clock.Now() - inc.OpenedAt
			return s.out
		}
		if progressed {
			s.stalls = 0
		} else {
			s.stalls++
			if s.stalls >= cfg.StallLimit {
				if !s.retestPass() {
					break
				}
			}
		}
	}
	s.escalate("no further testable hypotheses")
	s.out.TTM = w.Clock.Now() - inc.OpenedAt
	return s.out
}

// iterate runs one hypothesize-approve-test-interpret(-mitigate) round.
// It reports whether the round made progress and whether the incident is
// closed (mitigated or terminally escalated).
func (s *session) iterate() (progressed, done bool) {
	// --- Module 1: hypothesis former -----------------------------------
	hyps := s.formHypotheses()
	if len(hyps) == 0 {
		if s.backtrack() {
			s.trace(StepNote, "dead end; backtracking to an earlier branch")
			return true, false
		}
		return false, false
	}

	// --- OCE approval ---------------------------------------------------
	chosen, ok := s.approveHypothesis(hyps)
	if !ok {
		return false, false
	}

	// --- Module 2: hypothesis tester -------------------------------------
	verdict := s.testHypothesis(chosen)
	s.emit(obs.Event{Type: obs.EvHypothesisTested, Hypothesis: chosen.Concept, Verdict: verdict.String()})
	switch verdict {
	case testSupported:
		s.confirm(chosen.Concept)
	case testInconclusive:
		// Quarantined or rerouted evidence: neither accept nor reject on
		// it. The hypothesis stays open for a re-test; no progress this
		// round, so the stall limit still bounds the investigation.
		return false, false
	default: // testNoTest, testUnsupported
		s.reject(chosen.Concept)
		return true, false
	}

	// --- Module 3: mitigation planner ------------------------------------
	if s.attempted[chosen.Concept] {
		return true, false
	}
	const maxPlanAttempts = 2
	for attempt := 0; attempt < maxPlanAttempts; attempt++ {
		plan, planned, retryable := s.planMitigation(chosen.Concept)
		if !planned {
			if retryable {
				continue
			}
			return true, false
		}
		switch s.executeAndVerify(chosen.Concept, plan) {
		case execMitigated:
			return true, true
		case execFailedToApply:
			continue // a fresh plan may bind correctly
		case execVerifyFailed:
			return true, false
		}
	}
	s.attempted[chosen.Concept] = true
	return true, false
}

// execStatus is the outcome of one plan execution attempt.
type execStatus int

const (
	execMitigated execStatus = iota
	execFailedToApply
	execVerifyFailed
)

// testOutcome is the hypothesis tester's verdict.
type testOutcome int

const (
	// testNoTest: no test could be run (no known test, tool missing or
	// failing). The hypothesis is rejected, as an OCE sets aside what
	// cannot be checked.
	testNoTest testOutcome = iota
	// testUnsupported: the test ran and the findings refute the
	// hypothesis.
	testUnsupported
	// testSupported: the test ran and the findings support the
	// hypothesis.
	testSupported
	// testInconclusive: the evidence is quarantined (degraded source) or
	// the test was rerouted past an open breaker — re-test later instead
	// of accepting or rejecting. Only resilient sessions produce this.
	testInconclusive
)

// String names the verdict for the event stream (hypothesis-tested).
func (t testOutcome) String() string {
	switch t {
	case testSupported:
		return "supported"
	case testUnsupported:
		return "unsupported"
	case testInconclusive:
		return "inconclusive"
	default:
		return "no-test"
	}
}

// complete sends a request, advances the clock by inference latency, and
// meters usage.
func (s *session) complete(req llm.Request) (llm.Response, error) {
	resp, err := s.h.Model.Complete(req)
	if err != nil {
		return resp, err
	}
	s.w.Clock.Advance(resp.Latency)
	p := llm.DefaultPricing()
	s.out.LLMUsage.Record(resp, p)
	s.emit(obs.Event{
		Type:             obs.EvLLMCall,
		PromptTokens:     resp.Usage.PromptTokens,
		CompletionTokens: resp.Usage.CompletionTokens,
		Latency:          resp.Latency,
		CostUSD: float64(resp.Usage.PromptTokens)/1000*p.PromptPer1K +
			float64(resp.Usage.CompletionTokens)/1000*p.CompletionPer1K,
	})
	return resp, nil
}

func (s *session) formHypotheses() []llm.Hypothesis {
	resp, err := s.complete(llm.BuildFormHypotheses(s.ctx, s.cfg.Beam))
	if err != nil {
		s.trace(StepNote, "model error: "+err.Error())
		return nil
	}
	hyps := llm.ParseHypotheses(resp.Content)
	var names []string
	for _, h := range hyps {
		names = append(names, fmt.Sprintf("%s(%.2f)", h.Concept, h.Confidence))
	}
	s.trace(StepHypotheses, strings.Join(names, ", "))
	// The model's explicit "I have nothing" marker is not a hypothesis.
	out := hyps[:0]
	for _, h := range hyps {
		if h.Concept != "escalation_needed" {
			out = append(out, h)
		}
	}
	for _, h := range out {
		s.emit(obs.Event{Type: obs.EvHypothesis, Hypothesis: h.Concept, Confidence: h.Confidence})
	}
	return out
}

// approveHypothesis walks the ranked list until the OCE approves one.
func (s *session) approveHypothesis(hyps []llm.Hypothesis) (llm.Hypothesis, bool) {
	for _, h := range hyps {
		pre := s.cfg.PreApproveConfidence > 0 && h.Confidence >= s.cfg.PreApproveConfidence
		s.w.Clock.Advance(s.oce.approvalDelay(pre))
		if s.oce.VetoesHypothesis(h.Concept) {
			s.trace(StepVeto, fmt.Sprintf("OCE vetoed %q: not a known failure mode", h.Concept))
			s.reject(h.Concept)
			continue
		}
		mode := "approved"
		if pre {
			mode = "pre-approved"
		}
		s.trace(StepApproval, fmt.Sprintf("%s %s (confidence %.2f): %s", mode, h.Concept, h.Confidence, h.Reason))
		return h, true
	}
	return llm.Hypothesis{}, false
}

// testHypothesis runs the tester module: plan the test, invoke the tool
// (through the resilient path when configured), interpret the output
// (with OCE oversight).
func (s *session) testHypothesis(h llm.Hypothesis) testOutcome {
	resp, err := s.complete(llm.BuildPlanTest(s.ctx, h.Concept))
	if err != nil {
		s.trace(StepNote, "model error: "+err.Error())
		return testNoTest
	}
	tp, ok := llm.ParseTestPlan(resp.Content)
	if !ok {
		s.trace(StepTestPlanned, fmt.Sprintf("no known test for %s", h.Concept))
		return testNoTest
	}
	s.trace(StepTestPlanned, fmt.Sprintf("%s via %s: %s", h.Concept, tp.Tool, tp.Reason))

	tool, ok := s.h.Tools.Get(tp.Tool)
	if !ok {
		// Hallucinated tooling: the OCE fumbles looking for it.
		s.w.Clock.Advance(fumbleLatency)
		s.addEvidence(fmt.Sprintf("tool %q does not exist in the toolbox", tp.Tool))
		s.trace(StepNote, fmt.Sprintf("tool %q not found", tp.Tool))
		return testNoTest
	}
	if s.breakerOpen(tp.Tool) {
		// The tool has been failing repeatedly; don't burn another
		// deadline on it — cross-check its monitor instead.
		s.rerouteTest(tp.Tool)
		return testInconclusive
	}
	res, err := s.invokeTool(tool, tp.Args)
	if err != nil {
		s.addEvidence(fmt.Sprintf("tool %s failed: %v", tp.Tool, err))
		s.trace(StepToolInvoked, fmt.Sprintf("%s failed: %v", tp.Tool, err))
		if s.breakerOpen(tp.Tool) {
			// The last failure tripped the breaker: get a second opinion
			// on the monitor before drawing any conclusion.
			s.rerouteTest(tp.Tool)
			return testInconclusive
		}
		return testNoTest
	}
	s.trace(StepToolInvoked, fmt.Sprintf("%s -> %d findings", tp.Tool, len(res.Findings)))
	if s.cfg.Resilience.QuarantineDegraded && res.Degraded {
		// Low-trust evidence: record it (clearly labeled) but refuse to
		// accept or reject the hypothesis on it.
		for _, f := range res.Findings {
			s.addEvidence(fmt.Sprintf("[degraded:%s] %s: %s", res.Source, tp.Tool, f))
		}
		s.out.Quarantined++
		s.trace(StepQuarantine, fmt.Sprintf("%s output flagged %s; verdict on %s inconclusive, re-test", tp.Tool, res.Source, h.Concept))
		return testInconclusive
	}
	for _, f := range res.Findings {
		s.addEvidence(tp.Tool + ": " + f)
	}
	for k, v := range res.Bindings {
		s.ctx.Bindings[k] = v
	}

	// Interpretation, with optional self-consistency voting and the OCE
	// double-checking the reading.
	v, ok := s.interpret(h.Concept, tp.Tool, res.Findings)
	if !ok {
		return testNoTest
	}
	truthful := findingsSupport(res.Findings, h.Concept)
	if v.Supported != truthful && s.oce.CatchesMisreading() {
		s.trace(StepOCECorrected, fmt.Sprintf("OCE overruled model's reading of %s output (model said supported=%v)", tp.Tool, v.Supported))
		v.Supported = truthful
	}
	s.trace(StepInterpreted, fmt.Sprintf("%s supported=%v (%.2f): %s", h.Concept, v.Supported, v.Confidence, v.Reason))
	if v.Supported {
		return testSupported
	}
	return testUnsupported
}

// invokeTool is the single tool-invocation path. With resilience
// disabled it is exactly the historical sequence — charge latency,
// invoke, count — so naive sessions stay byte-identical. With resilience
// enabled, failures are retried with capped exponential backoff on the
// simulated clock (wasted time shows up in TTM) and feed the per-tool
// circuit breaker.
func (s *session) invokeTool(tool tools.Tool, args map[string]string) (tools.Result, error) {
	s.w.Clock.Advance(tool.Latency())
	res, err := tool.Invoke(s.w, args)
	s.out.ToolCalls++
	s.emitToolCall(tool.Name(), tool.Latency(), res, err)
	r := s.cfg.Resilience
	if !r.Enabled() {
		return res, err
	}
	for attempt := 0; err != nil && attempt < r.MaxRetries; attempt++ {
		s.recordToolFailure(tool.Name())
		if s.breakerOpen(tool.Name()) {
			return res, err
		}
		wait := r.backoff(attempt)
		s.w.Clock.Advance(wait)
		s.out.ToolRetries++
		s.trace(StepRetry, fmt.Sprintf("%s failed (%v); retry %d/%d after %s backoff", tool.Name(), err, attempt+1, r.MaxRetries, wait))
		s.w.Clock.Advance(tool.Latency())
		res, err = tool.Invoke(s.w, args)
		s.out.ToolCalls++
		s.emitToolCall(tool.Name(), tool.Latency(), res, err)
	}
	if err != nil {
		s.recordToolFailure(tool.Name())
	} else {
		if b := s.breaker[tool.Name()]; b != nil {
			b.consecutiveFails = 0
		}
	}
	return res, err
}

// recordToolFailure feeds the per-tool circuit breaker; crossing the
// threshold opens it for the cooldown window.
func (s *session) recordToolFailure(name string) {
	r := s.cfg.Resilience
	if r.BreakerThreshold <= 0 {
		return
	}
	b := s.breaker[name]
	if b == nil {
		b = &breakerState{}
		s.breaker[name] = b
	}
	b.consecutiveFails++
	if b.consecutiveFails >= r.BreakerThreshold && !s.breakerOpen(name) {
		b.openUntil = s.w.Clock.Now() + r.cooldown()
		b.consecutiveFails = 0
		s.out.BreakerTrips++
		s.trace(StepBreaker, fmt.Sprintf("circuit breaker for %s opened for %s after repeated failures", name, r.cooldown()))
	}
}

// breakerOpen reports whether the tool's circuit breaker is currently
// open on the simulated clock.
func (s *session) breakerOpen(name string) bool {
	b := s.breaker[name]
	return b != nil && s.w.Clock.Now() < b.openUntil
}

// rerouteTest is the open-breaker fallback: instead of querying a tool
// that keeps failing, cross-check its monitor so the session learns
// whether the telemetry source itself is broken. The cross-check's
// findings enter the evidence stream; the hypothesis verdict stays
// inconclusive.
func (s *session) rerouteTest(broken string) {
	s.out.Rerouted++
	cc, ok := s.h.Tools.Get(kb.ToolMonitorCheck)
	if !ok {
		s.trace(StepBreaker, fmt.Sprintf("breaker open for %s and no %s tool to reroute to", broken, kb.ToolMonitorCheck))
		return
	}
	s.trace(StepBreaker, fmt.Sprintf("breaker open for %s; rerouting to %s", broken, kb.ToolMonitorCheck))
	s.w.Clock.Advance(cc.Latency())
	res, err := cc.Invoke(s.w, map[string]string{"monitor": broken})
	s.out.ToolCalls++
	s.emitToolCall(kb.ToolMonitorCheck, cc.Latency(), res, err)
	if err != nil {
		s.addEvidence(fmt.Sprintf("tool %s failed: %v", kb.ToolMonitorCheck, err))
		s.trace(StepToolInvoked, fmt.Sprintf("%s failed: %v", kb.ToolMonitorCheck, err))
		return
	}
	s.trace(StepToolInvoked, fmt.Sprintf("%s -> %d findings", kb.ToolMonitorCheck, len(res.Findings)))
	for _, f := range res.Findings {
		s.addEvidence(kb.ToolMonitorCheck + ": " + f)
	}
}

// interpret asks the model whether the findings support the hypothesis,
// sampling SelfConsistency times and majority-voting. Ties break toward
// "unsupported" (the conservative reading).
func (s *session) interpret(concept, tool string, findings []string) (llm.Verdict, bool) {
	votes := s.cfg.SelfConsistency
	if votes < 1 {
		votes = 1
	}
	var last llm.Verdict
	yes, valid := 0, 0
	for i := 0; i < votes; i++ {
		resp, err := s.complete(llm.BuildInterpretTest(s.ctx, concept, tool, findings))
		if err != nil {
			continue
		}
		v, ok := llm.ParseVerdict(resp.Content)
		if !ok {
			continue
		}
		valid++
		last = v
		if v.Supported {
			yes++
		}
	}
	if valid == 0 {
		return llm.Verdict{}, false
	}
	last.Supported = yes*2 > valid
	if votes > 1 {
		s.trace(StepNote, fmt.Sprintf("self-consistency: %d/%d votes supported", yes, valid))
	}
	return last, true
}

// findingsSupport is the literal reading an attentive OCE applies when
// double-checking the model: does the tool output assert the concept?
func findingsSupport(findings []string, concept string) bool {
	for _, f := range findings {
		if strings.Contains(f, concept+"=true") {
			return true
		}
	}
	return false
}

// planMitigation asks the model for a plan and gates it through both
// risk views. planned=false means investigation should continue;
// retryable=true marks failures caused by a malformed plan (hallucinated
// target) rather than by the cause being unmitigable — the caller may
// re-ask the model once.
func (s *session) planMitigation(cause string) (plan mitigation.Plan, planned, retryable bool) {
	resp, err := s.complete(llm.BuildPlanMitigation(s.ctx, cause))
	if err != nil {
		return mitigation.Plan{}, false, false
	}
	proposed := llm.ParseActions(resp.Content)
	if len(proposed) == 0 {
		return mitigation.Plan{}, false, false
	}
	escalateOnly := true
	for _, pa := range proposed {
		if strings.HasPrefix(pa.Action.Target, "$") {
			// Unbound placeholder: the planner lacks a concrete target;
			// keep investigating instead of guessing.
			s.trace(StepPlanRejected, fmt.Sprintf("plan for %s has unbound target %s", cause, pa.Action.Target))
			return mitigation.Plan{}, false, false
		}
		if pa.Action.Kind != mitigation.Escalate {
			escalateOnly = false
		}
		plan.Actions = append(plan.Actions, pa.Action)
		plan.Rationale = pa.Reason
	}
	if escalateOnly {
		// The model knows no mitigation; treat as no plan so the chain
		// can go deeper before the stall limit forces escalation.
		s.trace(StepPlanProposed, fmt.Sprintf("model has no mitigation for %s", cause))
		s.attempted[cause] = true
		return mitigation.Plan{}, false, false
	}
	s.trace(StepPlanProposed, fmt.Sprintf("for %s: %s", cause, plan))

	// Risk assessment: qualitative (model) and quantitative (what-if).
	comb := risk.Combined{}
	if s.cfg.UseQualitativeRisk {
		rresp, err := s.complete(llm.BuildAssessRisk(s.ctx, plan.Actions))
		if err == nil {
			if op, ok := llm.ParseRiskOpinion(rresp.Content); ok {
				comb.Qualitative = op
			}
		}
	}
	if s.cfg.UseQuantitativeRisk && s.h.Quant != nil {
		comb.Quantitative = s.h.Quant.AssessPlan(s.w, plan)
	}
	if comb.Qualitative.Reason != "" || comb.Quantitative != nil {
		s.trace(StepRiskAssessed, comb.Narrative())
	}
	if !comb.Acceptable(s.cfg.RiskBudget) {
		s.trace(StepPlanRejected, fmt.Sprintf("risk %.2f over budget %.2f (or hard veto)", comb.Score(), s.cfg.RiskBudget))
		s.addEvidence(fmt.Sprintf("mitigation for %s rejected by risk assessment: %s", cause, comb.Narrative()))
		if comb.Quantitative != nil && comb.Quantitative.ExecError != nil {
			// The plan itself is broken (e.g. hallucinated target), not
			// the cause: worth one fresh planning attempt.
			return mitigation.Plan{}, false, true
		}
		s.attempted[cause] = true
		return mitigation.Plan{}, false, false
	}
	if comb.Quantitative != nil && comb.Quantitative.WorstLatencyRatio > 1.5 {
		s.trace(StepPlanRejected, fmt.Sprintf("what-if predicts residual latency %.1fx baseline: plan insufficient", comb.Quantitative.WorstLatencyRatio))
		s.attempted[cause] = true
		s.addEvidence(fmt.Sprintf("what-if: mitigating %s alone leaves latency degraded", cause))
		return mitigation.Plan{}, false, false
	}
	if comb.Quantitative != nil && comb.Quantitative.WorstAfter > incidentLossGate {
		// The what-if engine predicts residual impact: at best a partial
		// mitigation. Keep digging for the real cause instead of
		// spending an execution round (risk-informed search, §2).
		s.trace(StepPlanRejected, fmt.Sprintf("what-if predicts residual loss %.1f%%: plan insufficient", comb.Quantitative.WorstAfter*100))
		s.attempted[cause] = true
		s.addEvidence(fmt.Sprintf("what-if: mitigating %s alone leaves residual impact", cause))
		return mitigation.Plan{}, false, false
	}

	// OCE pulls the trigger (§4.3: only the OCE starts mitigation).
	pre := s.cfg.PreApproveRisk > 0 && comb.Score() <= s.cfg.PreApproveRisk && comb.Quantitative != nil && !comb.Quantitative.WouldCauseIncident
	s.w.Clock.Advance(s.oce.approvalDelay(pre))
	return plan, true, false
}

// incidentLossGate mirrors the alert engine's service-loss threshold.
const incidentLossGate = 0.01

// executeAndVerify applies the plan and closes the loop with
// verification.
func (s *session) executeAndVerify(cause string, plan mitigation.Plan) execStatus {
	before := worstServiceLoss(s.w)
	ex := s.executor("oce")
	if err := ex.ExecutePlan(plan); err != nil {
		s.out.PlanErrors++
		s.addEvidence(fmt.Sprintf("executing plan failed: %v", err))
		s.trace(StepExecuted, fmt.Sprintf("plan failed mid-execution: %v", err))
		return execFailedToApply
	}
	s.out.Applied.Actions = append(s.out.Applied.Actions, plan.Actions...)
	for _, a := range plan.Actions {
		s.emit(obs.Event{Type: obs.EvMitigation, Action: a.String()})
	}
	s.trace(StepExecuted, plan.String())

	s.w.Clock.Advance(verifyLatency)
	v := &mitigation.Verifier{World: s.w}
	if v.Mitigated() {
		// Stability check: watch the dashboards a little longer before
		// declaring victory, so an intermittent fault in a quiet window
		// cannot close the incident prematurely.
		s.w.Clock.Advance(stabilityWindow)
		if v.Mitigated() {
			s.out.Mitigated = true
			s.trace(StepVerified, "impact cleared and stable; incident mitigated")
			return execMitigated
		}
		s.trace(StepVerified, "impact cleared momentarily but recurred during the stability window")
	}
	s.out.WrongMitigations++
	s.attempted[cause] = true
	after := worstServiceLoss(s.w)
	if after > before+0.01 {
		s.out.SecondaryImpact++
		s.addEvidence(fmt.Sprintf("mitigation for %s made things worse (worst loss %.1f%% -> %.1f%%)", cause, before*100, after*100))
	} else {
		s.addEvidence(fmt.Sprintf("mitigation for %s executed but impact persists", cause))
	}
	s.trace(StepVerified, fmt.Sprintf("impact persists (worst loss %.1f%% -> %.1f%%)", before*100, after*100))
	return execVerifyFailed
}

func worstServiceLoss(w *netsim.World) float64 {
	rep := w.Recompute()
	worst := 0.0
	for _, ss := range rep.ServiceStats {
		if ss.LossRate > worst {
			worst = ss.LossRate
		}
	}
	return worst
}

// backtrack handles a dead end: the newest confirmed concept has no
// remaining unexplored causes, so park it (it stays excluded from
// re-proposal via the rejected list, though it remains in the outcome's
// chain) and let the former chain from the previous confirmation — or
// from the symptoms when nothing else is confirmed.
func (s *session) backtrack() bool {
	n := len(s.ctx.Confirmed)
	if n == 0 {
		return false
	}
	last := s.ctx.Confirmed[n-1]
	s.ctx.Confirmed = s.ctx.Confirmed[:n-1]
	s.reject(last)
	return true
}

// retestPass handles non-stationary incidents: when every hypothesis has
// been rejected but the impact is still live, operators go around again —
// a signal sampled in a quiet window may light up on the second look.
// One re-test pass is allowed (bounded by MaxRounds regardless).
func (s *session) retestPass() bool {
	if s.repasses >= 1 || len(s.ctx.Rejected) == 0 {
		return false
	}
	// "Is the impact really gone?" needs the same stability discipline
	// as post-mitigation verification: an intermittent fault in a quiet
	// window must not end the investigation.
	v := &mitigation.Verifier{World: s.w}
	if v.Mitigated() {
		s.w.Clock.Advance(stabilityWindow)
		if v.Mitigated() {
			return false // genuinely clean; nothing live to chase
		}
	}
	s.repasses++
	s.stalls = 0
	s.ctx.Rejected = nil
	s.trace(StepNote, "impact persists with all hypotheses rejected; re-testing from the top (signals may be intermittent)")
	return true
}

func (s *session) confirm(concept string) {
	s.ctx.Confirmed = append(s.ctx.Confirmed, concept)
	s.chain = append(s.chain, concept)
	s.out.Confirmed = append([]string(nil), s.chain...)
}

func (s *session) reject(concept string) {
	for _, r := range s.ctx.Rejected {
		if r == concept {
			return
		}
	}
	s.ctx.Rejected = append(s.ctx.Rejected, concept)
}

func (s *session) escalate(why string) {
	ex := s.executor("helper")
	_ = ex.Execute(mitigation.Action{Kind: mitigation.Escalate, Target: "SWAT"})
	s.out.Escalated = true
	s.trace(StepEscalated, why)
}

// executor builds a clocked executor for this session, with mitigation
// automation faults wired in when the harness injects them.
func (s *session) executor(actor string) *mitigation.Executor {
	ex := &mitigation.Executor{World: s.w, Clocked: true, Actor: actor}
	if s.h.ActionFaults != nil {
		ex.FailOn = s.h.ActionFaults.ActionError
	}
	return ex
}

func (s *session) addEvidence(line string) {
	s.ctx.Evidence = append(s.ctx.Evidence, line)
	if max := s.cfg.EvidenceWindow; len(s.ctx.Evidence) > max {
		s.ctx.Evidence = s.ctx.Evidence[len(s.ctx.Evidence)-max:]
	}
}

func (s *session) trace(kind StepKind, detail string) {
	s.emit(obs.Event{Type: obs.Type(kind), Detail: detail})
}

// emit records one structured event: simulated-clock timestamp and round
// are stamped, the event joins the outcome's stream, and a configured
// observer sees it live. This is the single choke point through which
// every session observation flows.
func (s *session) emit(e obs.Event) {
	e.At = s.w.Clock.Now()
	if e.Round == 0 {
		e.Round = s.round
	}
	s.out.Events = append(s.out.Events, e)
	obs.Emit(s.h.Obs, e)
}

// emitToolCall classifies one invocation attempt's disposition for the
// event stream.
func (s *session) emitToolCall(name string, latency time.Duration, res tools.Result, err error) {
	disposition := "ok"
	switch {
	case err != nil:
		disposition = "error"
	case res.Degraded:
		disposition = "degraded"
	}
	s.emit(obs.Event{Type: obs.EvToolCall, Tool: name, Disposition: disposition, Latency: latency})
}

func formatDur(d time.Duration) string {
	return d.Truncate(time.Second).String()
}
