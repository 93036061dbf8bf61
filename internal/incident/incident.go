// Package incident defines the incident record — what the incident
// manager hands an on-call engineer (OCE) or an OCE-helper at page time —
// plus the ground truth the evaluation harness scores against.
//
// The incident carries exactly the "predefined incident information" the
// paper describes one-shot predictors consuming: a title, a prose
// summary that ends with the auto-generated alert digest, and coarse
// symptoms derived from the alerts. The ground truth (root cause
// concept, full causal chain, required mitigation) is visible only to
// the harness, never to helpers.
package incident

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/kb"
	"repro/internal/mitigation"
	"repro/internal/telemetry"
)

// Incident is one incident report.
type Incident struct {
	ID       string
	Title    string
	Summary  string
	Severity int // 0..3, netsim.Severity values
	OpenedAt time.Duration

	// Symptoms are the observable concepts extracted from the digest
	// (kb.CPacketLoss etc.). This is the helper's starting evidence.
	Symptoms []string

	// Service names the most affected service, when known.
	Service string

	// Truth is harness-only ground truth; helpers must not read it.
	Truth *GroundTruth
}

// GroundTruth describes what actually happened.
type GroundTruth struct {
	// RootCause is the concept operators would settle on.
	RootCause string

	// CausalChain lists concepts from root cause to observed symptom,
	// e.g. Casc-1: config_push, config_inconsistency, prefix_conflict,
	// wan_failover, link_overload, packet_loss.
	CausalChain []string

	// RequiredMitigations are alternative action sets; a plan that
	// satisfies any one of them counts as a correct mitigation.
	RequiredMitigations [][]mitigation.Action
}

// ChainDepth is the number of deduction steps from the initial symptom
// back to the root cause (Fig. 2's "deduction step" count).
func (g *GroundTruth) ChainDepth() int {
	if len(g.CausalChain) == 0 {
		return 0
	}
	return len(g.CausalChain) - 1
}

// MitigationCorrect reports whether the plan satisfies any acceptable
// mitigation set.
func (g *GroundTruth) MitigationCorrect(p mitigation.Plan) bool {
	for _, need := range g.RequiredMitigations {
		if p.Satisfies(need) {
			return true
		}
	}
	return false
}

// SymptomsFromAlerts maps an alert digest to observable symptom concepts.
// Alert classes that reveal causes (e.g. hot-link warnings) contribute to
// the digest text but not to the symptom set: the paper's premise is that
// the initial summary under-determines the root cause.
func SymptomsFromAlerts(alerts []telemetry.Alert) []string {
	seen := map[string]bool{}
	var out []string
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, a := range alerts {
		switch a.Rule {
		case "service-loss":
			add(kb.CPacketLoss)
			if strings.Contains(a.Detail, "unrouted") && !strings.Contains(a.Detail, "(0/") {
				add(kb.CServiceUnreachable)
			}
		// "device-down" alerts are deliberately NOT mapped to a symptom
		// concept: device_down is a *cause* the helper should hypothesize
		// and confirm (binding the device for mitigation); the alert text
		// still reaches the helper through the digest evidence.
		case "latency":
			add(kb.CLatencySpike)
		}
	}
	return out
}

// Digest renders the alert digest as the summary text block incident
// reports embed.
func Digest(alerts []telemetry.Alert) string {
	if len(alerts) == 0 {
		return "auto-digest: no alerts firing"
	}
	var b strings.Builder
	b.WriteString("auto-digest:")
	for _, a := range alerts {
		b.WriteString("\n  ")
		b.WriteString(a.String())
	}
	return b.String()
}

// New assembles an incident from its parts: the alert digest is
// appended to the summary and the symptoms are derived from the alerts.
func New(id, title, summary string, severity int, openedAt time.Duration, alerts []telemetry.Alert, truth *GroundTruth) *Incident {
	return &Incident{
		ID: id, Title: title,
		Summary:  summary + "\n" + Digest(alerts),
		Severity: severity, OpenedAt: openedAt,
		Symptoms: SymptomsFromAlerts(alerts),
		Truth:    truth,
	}
}

// Record converts a resolved incident into the history-store form,
// recording what operators applied and how long mitigation took.
func (inc *Incident) Record(applied []mitigation.Action, ttm time.Duration, tags ...string) kb.IncidentRecord {
	root := ""
	if inc.Truth != nil {
		root = inc.Truth.RootCause
	}
	return kb.IncidentRecord{
		ID: inc.ID, Title: inc.Title, Summary: inc.Summary,
		Symptoms:  append([]string(nil), inc.Symptoms...),
		RootCause: root, Mitigation: append([]mitigation.Action(nil), applied...),
		TTMMinutes: ttm.Minutes(), Severity: inc.Severity, Tags: tags,
	}
}

// String summarizes the incident for traces.
func (inc *Incident) String() string {
	return fmt.Sprintf("%s [sev%d] %s (symptoms: %s)", inc.ID, inc.Severity, inc.Title, strings.Join(inc.Symptoms, ","))
}
