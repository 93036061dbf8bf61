package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/risk"
	"repro/internal/scenarios"
	"repro/internal/tools"
)

// buildHelper assembles a default helper for one incident instance over
// the given knowledge base.
func buildHelper(in *scenarios.Instance, kbase *kb.KB, seed int64, cfg Config) (*Helper, *OCE) {
	model := llm.NewSimLLM(kbase, seed)
	store := embed.NewStore(embed.NewDomainEmbedder(128))
	reg := tools.NewDefaultRegistry(store, kbase.History(), in.Incident.Title+" "+in.Incident.Summary, in.Incident.Service)
	h := &Helper{Model: model, Tools: reg, Quant: &risk.Assessor{}, Config: cfg}
	oce := NewOCE(0.9, kbase, rand.New(rand.NewSource(seed+1000)))
	return h, oce
}

func runScenario(t *testing.T, sc scenarios.Scenario, kbase *kb.KB, seed int64, cfg Config) (*scenarios.Instance, *Outcome) {
	t.Helper()
	in := sc.Build(rand.New(rand.NewSource(seed)))
	h, oce := buildHelper(in, kbase, seed, cfg)
	out := h.Run(in.World, in.Incident, oce)
	return in, out
}

// TestHelperSolvesEveryKnownScenario is the core contract: with the
// current KB the iterative helper mitigates every scenario class with a
// ground-truth-correct plan.
func TestHelperSolvesEveryKnownScenario(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase) // current knowledge, incl. fastpath
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				in, out := runScenario(t, sc, kbase, seed, DefaultConfig())
				if !out.Mitigated {
					t.Fatalf("seed %d: not mitigated; escalated=%v trace:\n%s", seed, out.Escalated, NewSessionTrace(out).String())
				}
				if !in.Succeeded(out.Applied) {
					t.Fatalf("seed %d: mitigated but plan %v does not satisfy ground truth; trace:\n%s",
						seed, out.Applied, NewSessionTrace(out).String())
				}
				if out.TTM <= 0 {
					t.Errorf("seed %d: TTM = %v", seed, out.TTM)
				}
				if out.LLMUsage.Calls == 0 {
					t.Error("no LLM usage metered")
				}
				if NewSessionTrace(out).String() == "" {
					t.Error("empty trace")
				}
			}
		})
	}
}

// TestHelperFindsRootCauseOnCascade: the deduction chain must reach the
// cascade's root cause concept, not just mitigate.
func TestHelperFindsCascadeChain(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	in, out := runScenario(t, &scenarios.Cascade{Stage: 5}, kbase, 1, DefaultConfig())
	if !out.Mitigated {
		t.Fatalf("not mitigated:\n%s", NewSessionTrace(out).String())
	}
	confirmed := map[string]bool{}
	for _, c := range out.Confirmed {
		confirmed[c] = true
	}
	// The chain must include the intermediate deductions of Fig. 2.
	for _, want := range []string{kb.CLinkOverload, kb.CWANFailover} {
		if !confirmed[want] {
			t.Errorf("chain %v missing %s", out.Confirmed, want)
		}
	}
	_ = in
}

// TestAdaptivityFig3 reproduces the paper's Figure 3 contrast in unit
// form: the stale helper fails on the novel incident; the fine-tuned
// helper and the in-context-updated helper resolve it.
func TestAdaptivityFig3(t *testing.T) {
	t.Parallel()
	staleKB := kb.Default() // no fastpath knowledge

	t.Run("stale-fails", func(t *testing.T) {
		in, out := runScenario(t, &scenarios.NovelProtocol{}, staleKB, 2, DefaultConfig())
		if out.Mitigated && in.Succeeded(out.Applied) {
			t.Fatalf("stale helper should not resolve the novel incident:\n%s", NewSessionTrace(out).String())
		}
		if !out.Escalated {
			t.Errorf("stale helper should escalate; trace:\n%s", NewSessionTrace(out).String())
		}
	})

	t.Run("finetuned-succeeds", func(t *testing.T) {
		fresh := kb.Default()
		kb.ApplyFastpathUpdate(fresh)
		in, out := runScenario(t, &scenarios.NovelProtocol{}, fresh, 2, DefaultConfig())
		if !out.Mitigated || !in.Succeeded(out.Applied) {
			t.Fatalf("updated helper failed:\n%s", NewSessionTrace(out).String())
		}
	})

	t.Run("incontext-succeeds", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.InContextRules = []llm.InContextRule{
			{Cause: kb.CProtocolRollout, Effect: kb.CProtocolBug, Strength: 0.4},
			{Cause: kb.CProtocolBug, Effect: kb.CDeviceOSCrash, Strength: 0.8},
		}
		in, out := runScenario(t, &scenarios.NovelProtocol{}, staleKB, 2, cfg)
		if !out.Mitigated || !in.Succeeded(out.Applied) {
			t.Fatalf("in-context helper failed:\n%s", NewSessionTrace(out).String())
		}
	})
}

// TestRiskGateBlocksInsufficientPlan: on the Tokyo incident the what-if
// engine predicts that restart-only recurs, so the helper must not waste
// an execution on it when quantitative risk is on.
func TestRiskGateBlocksInsufficientPlan(t *testing.T) {
	t.Parallel()
	fresh := kb.Default()
	kb.ApplyFastpathUpdate(fresh)

	_, withRisk := runScenario(t, &scenarios.NovelProtocol{}, fresh, 3, DefaultConfig())
	if withRisk.WrongMitigations > 0 {
		t.Errorf("risk-gated helper executed %d wrong mitigations", withRisk.WrongMitigations)
	}

	cfg := DefaultConfig()
	cfg.UseQuantitativeRisk = false
	cfg.UseQualitativeRisk = false
	_, noRisk := runScenario(t, &scenarios.NovelProtocol{}, fresh, 3, cfg)
	if noRisk.WrongMitigations == 0 {
		t.Errorf("risk-free helper should burn rounds on restart-only mitigation; trace:\n%s", NewSessionTrace(noRisk).String())
	}
}

// TestHallucinationBoundedByOCE: with a perfect-expertise OCE, a heavily
// hallucinating model still cannot execute corrupted plans (quantitative
// veto) and the incident usually resolves, slower.
func TestHallucinationBoundedByOCE(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	solved, slower := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(seed)))
		h, oce := buildHelper(in, kbase, seed, DefaultConfig())
		h.Model.(*llm.SimLLM).HallucinationRate = 0.25
		oce.Expertise = 1.0
		out := h.Run(in.World, in.Incident, oce)
		if out.Mitigated && in.Succeeded(out.Applied) {
			solved++
		}
		if out.SecondaryImpact > 0 {
			t.Errorf("seed %d: hallucinating helper caused secondary impact despite gates", seed)
		}
		if out.Rounds > 2 {
			slower++
		}
	}
	if solved < 4 {
		t.Errorf("hallucinating helper solved only %d/6", solved)
	}
}

func TestEscalationAfterStall(t *testing.T) {
	t.Parallel()
	// A helper whose model knows nothing useful must escalate, not spin.
	empty := kb.New()
	empty.AddConcept(kb.Concept{ID: kb.CPacketLoss, Description: "loss"})
	in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(4)))
	model := llm.NewSimLLM(empty, 4)
	reg := tools.NewDefaultRegistry(embed.NewStore(embed.NewDomainEmbedder(64)), kb.NewHistory(), "q", "web")
	h := &Helper{Model: model, Tools: reg, Quant: &risk.Assessor{}, Config: DefaultConfig()}
	oce := NewOCE(0.9, kb.Default(), rand.New(rand.NewSource(5)))
	out := h.Run(in.World, in.Incident, oce)
	if out.Mitigated {
		t.Fatal("knowledge-free helper mitigated?")
	}
	if !out.Escalated {
		t.Fatalf("expected escalation; trace:\n%s", NewSessionTrace(out).String())
	}
	if out.TTM <= 0 {
		t.Error("escalation TTM not accounted")
	}
}

func TestPreApprovalReducesTTM(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	fast := DefaultConfig() // pre-approval on by default
	slow := DefaultConfig()
	slow.PreApproveConfidence = 0 // off
	slow.PreApproveRisk = 0

	_, outFast := runScenario(t, &scenarios.DeviceFailure{}, kbase, 6, fast)
	_, outSlow := runScenario(t, &scenarios.DeviceFailure{}, kbase, 6, slow)
	if !outFast.Mitigated || !outSlow.Mitigated {
		t.Fatal("both configurations should mitigate")
	}
	if outFast.TTM >= outSlow.TTM {
		t.Errorf("pre-approval did not reduce TTM: %v vs %v", outFast.TTM, outSlow.TTM)
	}
}

func TestConfigDefaults(t *testing.T) {
	t.Parallel()
	c := Config{}.withDefaults()
	if c.Beam != 3 || c.MaxRounds != 12 || c.RiskBudget != 0.5 || c.EvidenceWindow != 30 || c.StallLimit != 3 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestOCEModel(t *testing.T) {
	t.Parallel()
	oce := NewOCE(1.0, kb.Default(), rand.New(rand.NewSource(1)))
	if oce.VetoesHypothesis(kb.CLinkOverload) {
		t.Error("known concept vetoed")
	}
	if !oce.VetoesHypothesis("cosmic_ray_bitflip") {
		t.Error("expert failed to veto fabricated concept")
	}
	novice := NewOCE(0.0, kb.Default(), rand.New(rand.NewSource(1)))
	if novice.VetoesHypothesis("cosmic_ray_bitflip") {
		t.Error("zero-expertise OCE vetoed")
	}
	if novice.CatchesMisreading() {
		t.Error("zero-expertise OCE caught misreading")
	}
	if oce.approvalDelay(true) != 0 {
		t.Error("pre-approved decision should be free")
	}
	if oce.approvalDelay(false) <= 0 {
		t.Error("approval should cost time")
	}
	_ = mitigation.NoOp
}

// flippingModel answers interpret_test with the correct "supported=true"
// verdict except for a fixed flip probability — an isolated stand-in for
// hallucinated misreadings.
type flippingModel struct {
	rng  *rand.Rand
	flip float64
}

func (m *flippingModel) Name() string       { return "flipper" }
func (m *flippingModel) ContextWindow() int { return 1 << 20 }
func (m *flippingModel) Complete(req llm.Request) (llm.Response, error) {
	supported := m.rng.Float64() >= m.flip
	return llm.Response{Content: "VERDICT: supported=" + boolStr(supported) + " confidence=0.9 reason=x\n"}, nil
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// TestSelfConsistencyVotingMath: majority voting over a model that flips
// verdicts 35%% of the time must beat a single sample (the paper's
// self-consistency citation applied to the tester), at proportional
// token/latency cost.
func TestSelfConsistencyVotingMath(t *testing.T) {
	t.Parallel()
	run := func(votes int) (accuracy float64) {
		in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(1)))
		m := &flippingModel{rng: rand.New(rand.NewSource(7)), flip: 0.35}
		s := &session{
			h:   &Helper{Model: m},
			w:   in.World,
			cfg: Config{SelfConsistency: votes}.withDefaults(),
			out: &Outcome{},
		}
		s.cfg.SelfConsistency = votes
		correct := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			v, ok := s.interpret(kb.CLinkCorruption, kb.ToolCounters, []string{"link_corruption=true link=x"})
			if !ok {
				t.Fatal("no verdict")
			}
			if v.Supported { // ground truth: supported
				correct++
			}
		}
		return float64(correct) / trials
	}
	acc1 := run(1)
	acc5 := run(5)
	if acc1 < 0.55 || acc1 > 0.75 {
		t.Fatalf("single-sample accuracy %.2f outside the configured flip rate", acc1)
	}
	if acc5 <= acc1+0.05 {
		t.Fatalf("5-vote accuracy %.2f not better than single %.2f", acc5, acc1)
	}
}

// TestSelfConsistencyCostsTokens: end-to-end, voting multiplies
// interpretation calls and tokens.
func TestSelfConsistencyCostsTokens(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	run := func(votes int) int {
		in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(2)))
		cfg := DefaultConfig()
		cfg.SelfConsistency = votes
		h, oce := buildHelper(in, kbase, 2, cfg)
		out := h.Run(in.World, in.Incident, oce)
		if !out.Mitigated {
			t.Fatalf("votes=%d: not mitigated", votes)
		}
		return out.LLMUsage.Prompt + out.LLMUsage.Completion
	}
	if t1, t5 := run(1), run(5); t5 <= t1 {
		t.Errorf("voting should cost tokens: %d vs %d", t5, t1)
	}
}

func TestPostmortemRendersSession(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	in, out := runScenario(t, &scenarios.Cascade{Stage: 5}, kbase, 1, DefaultConfig())
	pm := NewPostmortem(in.Incident, out).String()
	for _, want := range []string{
		"# Postmortem:", "## Outcome", "Mitigated in", "## Timeline",
		"override-wan(B4,healthy)", "## Costs and mistakes", "## Follow-ups",
		"Validated deduction chain",
	} {
		if !strings.Contains(pm, want) {
			t.Errorf("postmortem missing %q", want)
		}
	}
}

func TestPostmortemEscalationFollowUps(t *testing.T) {
	t.Parallel()
	in, out := runScenario(t, &scenarios.NovelProtocol{}, kb.Default(), 2, DefaultConfig())
	if out.Mitigated {
		t.Skip("stale helper unexpectedly mitigated")
	}
	pm := NewPostmortem(in.Incident, out).String()
	if !strings.Contains(pm, "Escalated after") {
		t.Error("escalation outcome missing")
	}
	if !strings.Contains(pm, "capture the specialist team's resolution") {
		t.Error("escalation follow-up missing")
	}
}
