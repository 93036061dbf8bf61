// Package baseline implements the comparison points the paper argues
// against or mentions:
//
//   - OneShot: the prior-work predictor ([1,13] in the paper) that maps
//     the predefined incident information (title, summary, digest) to a
//     root cause and mitigation in a single shot via retrieval over the
//     incident history — no iteration, no feedback loop.
//   - TSG automation vs. hard-coded script: the §3 case study showing
//     LLM-automating a well-structured troubleshooting guide does not
//     amortize against a script.
package baseline

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/embed"
	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/tools"
)

// Prediction is the one-shot output.
type Prediction struct {
	RootCause  string
	Confidence float64
	Template   []mitigation.Action // mitigation templates for the root cause
	Neighbors  []embed.Hit
}

// OneShot is the retrieval-based one-shot predictor: embed the incident
// text, find the nearest resolved incidents, vote on the root cause, and
// emit that cause's standard mitigation.
type OneShot struct {
	Store   *embed.Store
	History *kb.History
	KBase   *kb.KB
	K       int // neighbors consulted (default 5)
}

// Train returns a one-shot predictor over the history with the given
// embedder. The retrieval index (each record's text and symptoms) is
// built once per history version and embedder (kb.History.Index); every
// call gets its own fork of it, so training per incident costs a copy
// of a struct, not an embedding pass over the history.
func Train(hist *kb.History, kbase *kb.KB, embedder embed.Embedder) *OneShot {
	store := hist.Index("one-shot", embedder, func(r kb.IncidentRecord) string {
		return r.Text() + " symptoms: " + strings.Join(r.Symptoms, " ")
	})
	return &OneShot{Store: store, History: hist, KBase: kbase, K: 5}
}

// Predict maps the incident report to a root cause and mitigation
// template. ok is false when the history is empty.
func (o *OneShot) Predict(inc *incident.Incident) (Prediction, bool) {
	if o.Store.Len() == 0 {
		return Prediction{}, false
	}
	k := o.K
	if k <= 0 {
		k = 5
	}
	hits := o.Store.SearchANN(inc.Title+" "+inc.Summary+" symptoms: "+strings.Join(inc.Symptoms, " "), k)
	votes := map[string]float64{}
	for _, h := range hits {
		rec, ok := o.History.ByID(h.ID)
		if !ok || rec.RootCause == "" {
			continue
		}
		votes[rec.RootCause] += h.Score
	}
	if len(votes) == 0 {
		return Prediction{}, false
	}
	causes := make([]string, 0, len(votes))
	for c := range votes {
		causes = append(causes, c)
	}
	sort.Slice(causes, func(i, j int) bool {
		if votes[causes[i]] != votes[causes[j]] {
			return votes[causes[i]] > votes[causes[j]]
		}
		return causes[i] < causes[j]
	})
	best := causes[0]
	var total float64
	for _, v := range votes {
		total += v
	}
	return Prediction{
		RootCause:  best,
		Confidence: votes[best] / total,
		Template:   o.KBase.Mitigations(best),
		Neighbors:  hits,
	}, true
}

// Outcome mirrors the helper outcome for the evaluation harness.
type Outcome struct {
	Predicted        string
	Mitigated        bool
	Escalated        bool
	TTM              time.Duration
	Applied          mitigation.Plan
	WrongMitigations int
	SecondaryImpact  int
}

// Timing for the one-shot workflow: the prediction is nearly free, but
// binding, execution and verification still cost real time.
const (
	predictLatency = 1 * time.Minute
	verifyLatency  = 2 * time.Minute
)

// Execute runs the one-shot workflow: predict once, mechanically bind
// the template's placeholders with a single diagnostic query (the
// predicted cause's standard check), execute, verify once. There is no
// feedback loop: a failed verification ends in escalation — exactly the
// restriction the paper's iterative-prediction principle targets.
func (o *OneShot) Execute(w *netsim.World, inc *incident.Incident, reg *tools.Registry) *Outcome {
	out := &Outcome{}
	w.Clock.Advance(predictLatency)
	pred, ok := o.Predict(inc)
	if !ok || len(pred.Template) == 0 {
		o.escalate(w, out, inc)
		return out
	}
	out.Predicted = pred.RootCause

	// One mechanical binding pass via the predicted cause's check.
	bindings := map[string]string{}
	if c, found := o.KBase.ConceptByID(pred.RootCause); found && c.TestTool != "" {
		if tool, have := reg.Get(c.TestTool); have {
			w.Clock.Advance(tool.Latency())
			if res, err := tool.Invoke(w, nil); err == nil {
				for k, v := range res.Bindings {
					bindings[k] = v
				}
			}
		}
	}

	plan := mitigation.Plan{Rationale: fmt.Sprintf("one-shot: nearest incidents say %s", pred.RootCause)}
	for _, t := range pred.Template {
		targets := []string{t.Target}
		if bound, okb := bindings[t.Target]; okb {
			targets = strings.Split(bound, ",")
		}
		for _, target := range targets {
			if strings.HasPrefix(target, "$") {
				// Unbound target: the one-shot has nothing to aim at.
				o.escalate(w, out, inc)
				return out
			}
			param := t.Param
			if bound, okb := bindings[param]; okb {
				param = bound
			}
			plan.Actions = append(plan.Actions, mitigation.Action{Kind: t.Kind, Target: target, Param: param})
		}
	}

	before := worstServiceLoss(w)
	ex := &mitigation.Executor{World: w, Clocked: true, Actor: "one-shot"}
	if err := ex.ExecutePlan(plan); err != nil {
		o.escalate(w, out, inc)
		return out
	}
	out.Applied = plan
	w.Clock.Advance(verifyLatency)
	v := &mitigation.Verifier{World: w}
	if v.Mitigated() {
		out.Mitigated = true
		out.TTM = w.Clock.Now() - inc.OpenedAt
		return out
	}
	out.WrongMitigations++
	if worstServiceLoss(w) > before+0.01 {
		out.SecondaryImpact++
	}
	o.escalate(w, out, inc)
	return out
}

func (o *OneShot) escalate(w *netsim.World, out *Outcome, inc *incident.Incident) {
	ex := &mitigation.Executor{World: w, Clocked: true, Actor: "one-shot"}
	_ = ex.Execute(mitigation.Action{Kind: mitigation.Escalate, Target: "SWAT"})
	out.Escalated = true
	out.TTM = w.Clock.Now() - inc.OpenedAt
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
