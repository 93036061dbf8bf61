// Package harness adapts the three predictor designs — the iterative
// helper, the one-shot baseline, and the unassisted control OCE — to one
// Runner interface the evaluation machinery (A/B tests, replay, benches)
// drives uniformly.
package harness

import (
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/faults"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/oce"
	"repro/internal/randsrc"
	"repro/internal/risk"
	"repro/internal/scenarios"
	"repro/internal/tools"
)

// Result is the uniform outcome of one incident handled by one runner.
type Result struct {
	Scenario   string
	Mitigated  bool
	Escalated  bool
	Correct    bool // mitigated AND the applied plan satisfies ground truth
	RootCause  bool // the runner identified the true root cause
	TTM        time.Duration
	Wrong      int // executed-but-failed mitigations
	Secondary  int // mitigations that worsened a service
	PlanErrors int
	Rounds     int
	ToolCalls  int
	Tokens     int // LLM tokens (0 for non-LLM runners)
	LLMCalls   int
	// CostUSD is the model inference bill for the session (§3 system
	// cost; 0 for non-LLM runners).
	CostUSD float64
	// Retries and Quarantined expose the resilient path's bookkeeping
	// (0 for naive runners and for fault-free runs).
	Retries     int
	Quarantined int
	Applied     mitigation.Plan
	// Deductions is the causal chain the session's cross-check path
	// confirmed, in confirmation order (symptom side first, root cause
	// last) — what the data lake's verified-ingest gate promotes. Empty
	// for runners without an iterative deduction loop.
	Deductions []string
}

// EscalationPenalty is the modeled time a specialist team needs after a
// hand-off; unresolved incidents carry it in TTM statistics so "escalate
// fast" is not a winning strategy.
const EscalationPenalty = 2 * time.Hour

// PenalizedTTM returns TTM plus the escalation penalty when the incident
// was not mitigated by the runner itself.
func (r Result) PenalizedTTM() time.Duration {
	if r.Mitigated {
		return r.TTM
	}
	return r.TTM + EscalationPenalty
}

// Runner handles one incident instance end to end.
type Runner interface {
	Name() string
	Run(in *scenarios.Instance, seed int64) Result
}

// newRegistry builds the per-incident toolbox. The store backing the
// similar-incidents tool is a fork of the history's index, built once
// per history version.
func newRegistry(in *scenarios.Instance, hist *kb.History, emb embed.Embedder) *tools.Registry {
	store := embed.NewStore(emb)
	if hist != nil {
		store = hist.Index("similar-incidents", emb, kb.IncidentRecord.Text)
	}
	return tools.NewDefaultRegistry(store, hist, in.Incident.Title+" "+in.Incident.Summary, in.Incident.Service)
}

// injectFaults wraps a registry with a per-trial fault injector when the
// config enables one. The injector is derived from the trial seed, so
// fault schedules are reproducible and independent of worker count.
func injectFaults(reg *tools.Registry, cfg faults.Config, seed int64) (*tools.Registry, *faults.Injector) {
	if !cfg.Enabled() {
		return reg, nil
	}
	inj := faults.NewInjector(cfg, seed)
	return faults.Wrap(reg, inj), inj
}

// HelperRunner drives the paper's iterative helper.
type HelperRunner struct {
	Label     string
	KBase     *kb.KB // the model's trained knowledge (snapshot for stale helpers)
	Config    core.Config
	Expertise float64 // OCE in the loop (default 0.9)
	OCEKB     *kb.KB  // OCE's own vocabulary (defaults to KBase)

	// Model knobs.
	Hallucination float64
	Recall        float64 // trained-rule recall; 0 keeps the default (1.0)
	Window        int     // context window override; 0 keeps the default

	// History powers the similar-incidents tool (optional).
	History *kb.History

	// Faults enables deterministic fault injection on the toolbox and
	// mitigation automation; the zero value keeps runs byte-identical to
	// a fault-free build. Pair with Config.Resilience to make the helper
	// cope rather than suffer.
	Faults faults.Config
}

// Name implements Runner.
func (h *HelperRunner) Name() string {
	if h.Label != "" {
		return h.Label
	}
	return "iterative-helper"
}

// Run implements Runner.
func (h *HelperRunner) Run(in *scenarios.Instance, seed int64) Result {
	return h.RunObserved(in, seed, nil)
}

// RunObserved implements ObservedRunner. The core session emits the rich
// tool/LLM/hypothesis events itself (including retries and breaker
// trips), so the helper's registry is not re-wrapped here.
func (h *HelperRunner) RunObserved(in *scenarios.Instance, seed int64, o obs.Observer) Result {
	o = obs.WithRunner(o, h.Name())
	model := llm.NewSimLLM(h.KBase, seed)
	model.HallucinationRate = h.Hallucination
	if h.Recall > 0 {
		model.Recall = h.Recall
	}
	if h.Window > 0 {
		model.Window = h.Window
	}
	reg := newRegistry(in, h.History, embed.NewDomainEmbedder(128))
	_ = reg.Register("im", tools.NewNLQueryTool(model)) // verified NL query, §4.4
	reg, inj := injectFaults(reg, h.Faults, seed)
	helper := &core.Helper{Model: model, Tools: reg, Quant: &risk.Assessor{}, Config: h.Config, Obs: o}
	if inj != nil {
		helper.ActionFaults = inj
	}
	exp := h.Expertise
	if exp == 0 {
		exp = 0.9
	}
	oceKB := h.OCEKB
	if oceKB == nil {
		oceKB = h.KBase
	}
	watcher := core.NewOCE(exp, oceKB, randsrc.New(seed^0x5eed))
	emitStart(o, in, seed)
	out := helper.Run(in.World, in.Incident, watcher)

	res := helperResult(in, out)
	emitEnd(o, in, res)
	return res
}

// helperResult maps a core session outcome onto the uniform Result.
func helperResult(in *scenarios.Instance, out *core.Outcome) Result {
	res := Result{
		Scenario:    in.Scenario.Name(),
		Mitigated:   out.Mitigated,
		Escalated:   out.Escalated,
		TTM:         out.TTM,
		Wrong:       out.WrongMitigations,
		Secondary:   out.SecondaryImpact,
		PlanErrors:  out.PlanErrors,
		Rounds:      out.Rounds,
		ToolCalls:   out.ToolCalls,
		Tokens:      out.LLMUsage.Prompt + out.LLMUsage.Completion,
		LLMCalls:    out.LLMUsage.Calls,
		CostUSD:     out.LLMUsage.DollarCost(llm.DefaultPricing()),
		Retries:     out.ToolRetries,
		Quarantined: out.Quarantined,
		Applied:     out.Applied,
		Deductions:  append([]string(nil), out.Confirmed...),
	}
	res.Correct = out.Mitigated && in.Succeeded(out.Applied)
	truth := in.Incident.Truth
	for _, c := range out.Confirmed {
		if c == truth.RootCause {
			res.RootCause = true
		}
	}
	return res
}

// OneShotRunner drives the retrieval-based one-shot baseline. Its
// History must not change while a run is in flight; between runs it
// may grow, and the next run retrains on the new version. Retrieval
// indexes are built once per History version and forked per run, so
// one runner is safe to share across pool workers.
type OneShotRunner struct {
	Label    string
	History  *kb.History
	KBase    *kb.KB
	Embedder embed.Embedder // defaults to the domain embedder

	// Faults injects tool faults into the baseline's toolbox (zero value:
	// none).
	Faults faults.Config
}

// Name implements Runner.
func (o *OneShotRunner) Name() string {
	if o.Label != "" {
		return o.Label
	}
	return "one-shot"
}

// Run implements Runner.
func (o *OneShotRunner) Run(in *scenarios.Instance, seed int64) Result {
	return o.RunObserved(in, seed, nil)
}

// RunObserved implements ObservedRunner: the baseline's toolbox is
// wrapped (outermost, after fault injection) so every invocation and its
// disposition lands in the event stream.
func (o *OneShotRunner) RunObserved(in *scenarios.Instance, seed int64, ob obs.Observer) Result {
	ob = obs.WithRunner(ob, o.Name())
	emb := o.Embedder
	if emb == nil {
		emb = embed.NewDomainEmbedder(128)
	}
	pred := baseline.Train(o.History, o.KBase, emb)
	reg := newRegistry(in, o.History, emb)
	reg, _ = injectFaults(reg, o.Faults, seed)
	reg = observeRegistry(reg, ob)
	emitStart(ob, in, seed)
	out := pred.Execute(in.World, in.Incident, reg)
	res := Result{
		Scenario:  in.Scenario.Name(),
		Mitigated: out.Mitigated,
		Escalated: out.Escalated,
		TTM:       out.TTM,
		Wrong:     out.WrongMitigations,
		Secondary: out.SecondaryImpact,
		Rounds:    1,
		Applied:   out.Applied,
	}
	res.Correct = out.Mitigated && in.Succeeded(out.Applied)
	res.RootCause = out.Predicted == in.Incident.Truth.RootCause
	emitEnd(ob, in, res)
	return res
}

// ControlRunner drives the unassisted OCE (the A/B control arm).
type ControlRunner struct {
	Label     string
	KBase     *kb.KB
	Expertise float64 // default 0.8
	History   *kb.History

	// Faults injects tool faults into the OCE's toolbox (zero value:
	// none). The unassisted engineer has no retry machinery: failures
	// cost time and reject hypotheses, as for the naive helper.
	Faults faults.Config
}

// Name implements Runner.
func (c *ControlRunner) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "unassisted-oce"
}

// Run implements Runner.
func (c *ControlRunner) Run(in *scenarios.Instance, seed int64) Result {
	return c.RunObserved(in, seed, nil)
}

// RunObserved implements ObservedRunner: the engineer's toolbox is
// wrapped (outermost, after fault injection) so every invocation and its
// disposition lands in the event stream.
func (c *ControlRunner) RunObserved(in *scenarios.Instance, seed int64, o obs.Observer) Result {
	o = obs.WithRunner(o, c.Name())
	exp := c.Expertise
	if exp == 0 {
		exp = 0.8
	}
	eng := &oce.Engineer{Expertise: exp, KBase: c.KBase, Rng: randsrc.New(seed ^ 0xabcdef)}
	reg := newRegistry(in, c.History, embed.NewDomainEmbedder(128))
	reg, _ = injectFaults(reg, c.Faults, seed)
	reg = observeRegistry(reg, o)
	emitStart(o, in, seed)
	out := eng.Solve(in.World, in.Incident, reg)
	res := Result{
		Scenario:  in.Scenario.Name(),
		Mitigated: out.Mitigated,
		Escalated: out.Escalated,
		TTM:       out.TTM,
		Wrong:     out.WrongMitigations,
		Rounds:    out.Rounds,
		ToolCalls: out.ToolCalls,
		Applied:   out.Applied,
	}
	res.Correct = out.Mitigated && in.Succeeded(out.Applied)
	emitEnd(o, in, res)
	return res
}

// RunSession runs the iterative helper with an explicit model and
// returns the uniform result plus the full structured outcome — the
// typed event stream (render with core.NewSessionTrace) and everything
// core.NewPostmortem needs. Events stream into o live when non-nil.
func RunSession(model llm.Model, kbase *kb.KB, cfg core.Config, expertise float64, hist *kb.History, in *scenarios.Instance, seed int64, o obs.Observer) (Result, *core.Outcome) {
	o = obs.WithRunner(o, "iterative-helper")
	reg := newRegistry(in, hist, embed.NewDomainEmbedder(128))
	_ = reg.Register("im", tools.NewNLQueryTool(model)) // verified NL query, §4.4
	helper := &core.Helper{Model: model, Tools: reg, Quant: &risk.Assessor{}, Config: cfg, Obs: o}
	if expertise == 0 {
		expertise = 0.9
	}
	watcher := core.NewOCE(expertise, kbase, randsrc.New(seed^0x5eed))
	emitStart(o, in, seed)
	out := helper.Run(in.World, in.Incident, watcher)
	res := helperResult(in, out)
	emitEnd(o, in, res)
	return res, out
}
