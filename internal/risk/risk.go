// Package risk implements the two complementary risk views the paper's
// mitigation planner requires (§4.3):
//
//   - an external, quantitative analysis: a white-box what-if engine that
//     clones the world, applies the candidate mitigation, recomputes
//     routing, and measures per-service impact — including whether the
//     mitigation itself would cause a new incident, the gap §4.4 calls
//     out in prior analytical work;
//   - an internal, qualitative analysis: the LLM's reasoned opinion
//     (produced via llm.BuildAssessRisk), blended here with the
//     quantitative result.
package risk

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
)

// ServiceImpact is one service's loss change under a candidate plan.
type ServiceImpact struct {
	LossBefore float64
	LossAfter  float64
}

// Delta returns the loss increase (negative = improvement).
func (s ServiceImpact) Delta() float64 { return s.LossAfter - s.LossBefore }

// Report is the quantitative what-if result for a plan.
type Report struct {
	Impacts []ServiceImpact

	// Score in [0,1]: demand-weighted harm probability proxy.
	Score float64

	// WouldCauseIncident is true when the plan pushes a currently-healthy
	// service over the loss threshold or wedges new devices — the
	// mitigation-triggered-incident case prior work ignores.
	WouldCauseIncident bool

	// Improves is true when the plan strictly reduces the worst service
	// loss.
	Improves bool

	// WorstAfter is the worst per-service loss rate predicted after the
	// plan; a value above the alert threshold means the plan is at best
	// a partial mitigation.
	WorstAfter float64

	// WorstLatencyRatio is the worst predicted post-plan service latency
	// relative to its baseline (1.0 = at baseline; 0 when no baselines
	// are recorded).
	WorstLatencyRatio float64

	// ExecError records a plan that could not even be applied in the
	// what-if world (e.g. hallucinated target); such plans are maximum
	// risk.
	ExecError error

	Narrative string
}

// incidentLossThreshold mirrors the alert engine's service-loss rule.
const incidentLossThreshold = 0.01

// Assessor is the white-box quantitative risk engine.
type Assessor struct{}

// AssessPlan evaluates the plan on a cloned world and returns the report.
// The live world is never mutated.
func (a *Assessor) AssessPlan(w *netsim.World, p mitigation.Plan) *Report {
	// Report() reuses the world's cached fixed point when it is still
	// valid; every mutation path invalidates it, so this is identical to
	// Recompute() minus the redundant re-solve per candidate plan.
	before := w.Report()
	clone := w.Clone()
	r := &Report{}

	ex := &mitigation.Executor{World: clone, Actor: "what-if"}
	if err := ex.ExecutePlan(p); err != nil {
		r.ExecError = err
		r.Score = 1
		r.Narrative = fmt.Sprintf("plan is not executable: %v", err)
		return r
	}
	after := clone.Recompute()

	services := make([]string, 0, len(before.ServiceStats))
	for s := range before.ServiceStats {
		services = append(services, s)
	}
	sort.Strings(services)

	worstBefore, worstAfter := 0.0, 0.0
	var harmed []string
	var totalDemand, harmedDemand float64
	for _, svc := range services {
		b := before.ServiceStats[svc]
		aft := after.ServiceStats[svc]
		si := ServiceImpact{LossBefore: b.LossRate}
		if aft != nil {
			si.LossAfter = aft.LossRate
		}
		r.Impacts = append(r.Impacts, si)
		totalDemand += b.Demand
		if si.LossBefore > worstBefore {
			worstBefore = si.LossBefore
		}
		if si.LossAfter > worstAfter {
			worstAfter = si.LossAfter
		}
		if si.Delta() > 0.005 {
			harmed = append(harmed, svc)
			harmedDemand += b.Demand
		}
		if si.LossBefore <= incidentLossThreshold && si.LossAfter > incidentLossThreshold {
			r.WouldCauseIncident = true
		}
	}

	// Newly wedged (not operator-isolated) devices are a secondary
	// incident even without immediate loss.
	beforeWedged := wedgedSet(w)
	for _, nd := range clone.Net.Nodes() {
		if !nd.Healthy && !nd.Isolated && !beforeWedged[nd.ID] {
			r.WouldCauseIncident = true
			harmed = append(harmed, "device:"+string(nd.ID))
		}
	}

	r.WorstAfter = worstAfter
	for svc, ss := range after.ServiceStats {
		if base := clone.LatencyBaseline[svc]; base > 0 {
			if ratio := ss.MaxLatency / base; ratio > r.WorstLatencyRatio {
				r.WorstLatencyRatio = ratio
			}
		}
	}
	if totalDemand > 0 {
		r.Score = harmedDemand / totalDemand
	}
	if r.WouldCauseIncident && r.Score < 0.25 {
		r.Score = 0.25
	}
	r.Improves = worstAfter < worstBefore-0.005

	switch {
	case len(harmed) > 0:
		r.Narrative = fmt.Sprintf("what-if: plan harms %s; worst service loss %.1f%% -> %.1f%%",
			strings.Join(harmed, ", "), worstBefore*100, worstAfter*100)
	case r.Improves:
		r.Narrative = fmt.Sprintf("what-if: plan improves worst service loss %.1f%% -> %.1f%%", worstBefore*100, worstAfter*100)
	default:
		r.Narrative = fmt.Sprintf("what-if: plan is neutral (worst loss %.1f%% -> %.1f%%)", worstBefore*100, worstAfter*100)
	}
	return r
}

func wedgedSet(w *netsim.World) map[netsim.NodeID]bool {
	out := map[netsim.NodeID]bool{}
	for _, nd := range w.Net.Nodes() {
		if !nd.Healthy && !nd.Isolated {
			out[nd.ID] = true
		}
	}
	return out
}

// Combined merges the qualitative (LLM) and quantitative (what-if) views,
// the paper's third risk research line. Each view catches failure modes
// the other misses: the LLM knows component semantics the what-if engine
// cannot see, and the what-if engine is immune to hallucinated
// confidence. The what-if engine's hard findings (would cause an
// incident, plan not executable) veto regardless of the blended score.
type Combined struct {
	Qualitative  llm.RiskOpinion
	Quantitative *Report
}

// Blend weights: measured impact dominates narrative concern.
const (
	qualWeight  = 0.4
	quantWeight = 0.6
)

// Score returns the blended risk in [0,1]. With only one view present
// that view's score is returned unweighted.
func (c Combined) Score() float64 {
	if c.Quantitative == nil {
		return c.Qualitative.Score
	}
	if c.Qualitative.Reason == "" && c.Qualitative.Score == 0 {
		return c.Quantitative.Score
	}
	return qualWeight*c.Qualitative.Score + quantWeight*c.Quantitative.Score
}

// Acceptable reports whether the plan passes the given risk budget: the
// blended score is within budget and the what-if engine predicts no new
// incident.
func (c Combined) Acceptable(budget float64) bool {
	if c.Quantitative != nil && (c.Quantitative.WouldCauseIncident || c.Quantitative.ExecError != nil) {
		return false
	}
	return c.Score() <= budget
}

// Narrative renders both views for the OCE.
func (c Combined) Narrative() string {
	parts := []string{}
	if c.Qualitative.Reason != "" {
		parts = append(parts, fmt.Sprintf("LLM: %s (%.2f) %s", c.Qualitative.Level, c.Qualitative.Score, c.Qualitative.Reason))
	}
	if c.Quantitative != nil {
		parts = append(parts, c.Quantitative.Narrative)
	}
	return strings.Join(parts, " | ")
}
