package baseline

import (
	"strings"
	"time"

	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/tools"
)

// The executable half of §3's TSG case study lives with the tests: the
// program prices the two automation paths (CostModel), and
// TestRunTSGScriptAndLLMEquivalentOutcome checks the premise that both
// paths follow the same guide to the same outcome.

// TSGResult is the outcome of following a guide on one incident.
type TSGResult struct {
	Completed bool
	Mitigated bool
	Applied   mitigation.Plan
	Elapsed   time.Duration
	LLMTokens int
}

// RunTSG follows the guide mechanically. When model is non-nil it plays
// the LLM-automation role: each query step pays an interpretation call
// and each action step a planning call (token-metered); when model is
// nil it is the hard-coded script. Bindings flow from query steps into
// action placeholders.
func RunTSG(w *netsim.World, t *kb.TSG, reg *tools.Registry, model llm.Model) TSGResult {
	var res TSGResult
	start := w.Clock.Now()
	bindings := map[string]string{}
	for _, step := range t.Steps {
		switch step.Kind {
		case kb.TSGQuery:
			tool, ok := reg.Get(step.Tool)
			if !ok {
				res.Elapsed = w.Clock.Now() - start
				return res
			}
			w.Clock.Advance(tool.Latency())
			out, err := tool.Invoke(w, step.Args)
			if err != nil {
				res.Elapsed = w.Clock.Now() - start
				return res
			}
			for k, v := range out.Bindings {
				bindings[k] = v
			}
			if model != nil {
				resp, err := model.Complete(llm.BuildInterpretTest(llm.PromptContext{}, t.Symptom, step.Tool, out.Findings))
				if err == nil {
					res.LLMTokens += resp.Usage.Total()
					w.Clock.Advance(resp.Latency)
				}
			}
		case kb.TSGAction:
			a := step.Action
			targets := []string{a.Target}
			if bound, ok := bindings[a.Target]; ok {
				targets = strings.Split(bound, ",")
			}
			if model != nil {
				resp, err := model.Complete(llm.BuildPlanMitigation(llm.PromptContext{Bindings: bindings}, t.Symptom))
				if err == nil {
					res.LLMTokens += resp.Usage.Total()
					w.Clock.Advance(resp.Latency)
				}
			}
			ex := &mitigation.Executor{World: w, Clocked: true, Actor: "tsg"}
			for _, target := range targets {
				if strings.HasPrefix(target, "$") {
					continue // unbound: the guide's query found nothing
				}
				act := mitigation.Action{Kind: a.Kind, Target: target, Param: a.Param}
				if err := ex.Execute(act); err == nil {
					res.Applied.Actions = append(res.Applied.Actions, act)
				}
			}
		case kb.TSGVerify:
			w.Clock.Advance(2 * time.Minute)
			v := &mitigation.Verifier{World: w}
			res.Mitigated = v.Mitigated()
		}
	}
	res.Completed = true
	res.Elapsed = w.Clock.Now() - start
	return res
}
