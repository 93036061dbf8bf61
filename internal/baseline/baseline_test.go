package baseline_test

import (
	"math/rand"
	"repro/internal/baseline"
	"testing"

	"repro/internal/embed"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/replayer"
	"repro/internal/scenarios"
	"repro/internal/tools"
)

func routineCorpus(seed int64) *replayer.Corpus {
	return replayer.Generate(replayer.Options{N: 80, Seed: seed})
}

func registryFor(in *scenarios.Instance, hist *kb.History) *tools.Registry {
	store := embed.NewStore(embed.NewDomainEmbedder(128))
	for _, r := range hist.All() {
		store.Add(r.ID, r.Text())
	}
	return tools.NewDefaultRegistry(store, hist, in.Incident.Title+" "+in.Incident.Summary, in.Incident.Service)
}

func TestOneShotSolvesRoutineIncidents(t *testing.T) {
	t.Parallel()
	corpus := routineCorpus(1)
	kbase := kb.Default()
	pred := baseline.Train(corpus.History, kbase, embed.NewDomainEmbedder(128))

	total, solved := 0, 0
	for _, sc := range scenarios.Routine() {
		classSolved := 0
		for seed := int64(100); seed < 105; seed++ {
			in := sc.Build(rand.New(rand.NewSource(seed)))
			out := pred.Execute(in.World, in.Incident, registryFor(in, corpus.History))
			total++
			if out.Mitigated && in.Succeeded(out.Applied) {
				solved++
				classSolved++
			}
		}
		// Per class the one-shot must solve a clear majority; text
		// ambiguity between classes costs it some incidents, which is
		// the realistic failure mode of retrieval-based predictors.
		if classSolved < 3 {
			t.Errorf("one-shot solved only %d/5 %s (trained on similar history)", classSolved, sc.Name())
		}
	}
	if float64(solved)/float64(total) < 0.7 {
		t.Errorf("one-shot routine success %d/%d below 70%%", solved, total)
	}
}

func TestOneShotFailsDeepAndNovelIncidents(t *testing.T) {
	t.Parallel()
	corpus := routineCorpus(2)
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	pred := baseline.Train(corpus.History, kbase, embed.NewDomainEmbedder(128))

	for _, sc := range []scenarios.Scenario{&scenarios.Cascade{Stage: 5}, &scenarios.NovelProtocol{}} {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			for seed := int64(200); seed < 204; seed++ {
				in := sc.Build(rand.New(rand.NewSource(seed)))
				out := pred.Execute(in.World, in.Incident, registryFor(in, corpus.History))
				if out.Mitigated && in.Succeeded(out.Applied) {
					t.Errorf("seed %d: one-shot resolved %s (predicted %s) — Fig. 2/3 shape broken",
						seed, sc.Name(), out.Predicted)
				}
			}
		})
	}
}

func TestOneShotEmptyHistoryEscalates(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	pred := baseline.Train(kb.NewHistory(), kbase, embed.NewDomainEmbedder(64))
	in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(3)))
	out := pred.Execute(in.World, in.Incident, registryFor(in, kb.NewHistory()))
	if out.Mitigated || !out.Escalated {
		t.Fatalf("outcome = %+v", out)
	}
	if out.TTM <= 0 {
		t.Error("TTM not accounted on escalation")
	}
}

func TestOneShotPredictVotes(t *testing.T) {
	t.Parallel()
	hist := kb.NewHistory()
	for i := 0; i < 3; i++ {
		hist.Add(kb.IncidentRecord{
			ID: string(rune('a' + i)), Title: "packet drops web tier retransmissions",
			RootCause: kb.CLinkCorruption,
		})
	}
	hist.Add(kb.IncidentRecord{ID: "z", Title: "billing slow", RootCause: kb.CTrafficSurge})
	pred := baseline.Train(hist, kb.Default(), embed.NewDomainEmbedder(128))
	in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(4)))
	p, ok := pred.Predict(in.Incident)
	if !ok {
		t.Fatal("no prediction")
	}
	if p.RootCause != kb.CLinkCorruption {
		t.Errorf("predicted %s", p.RootCause)
	}
	if len(p.Template) == 0 {
		t.Error("no mitigation template")
	}
}

func TestRunTSGScriptAndLLMEquivalentOutcome(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	guides := kbase.TSGForSymptom(kb.CDeviceDown)
	if len(guides) != 1 || guides[0].ID != "tsg-device-down" {
		t.Fatalf("device-down guides = %+v", guides)
	}
	tsg := guides[0]

	// Script path.
	inScript := (&scenarios.DeviceFailure{}).Build(rand.New(rand.NewSource(5)))
	resScript := baseline.RunTSG(inScript.World, tsg, registryFor(inScript, kb.NewHistory()), nil)
	if !resScript.Completed || !resScript.Mitigated {
		t.Fatalf("script TSG run failed: %+v", resScript)
	}
	if resScript.LLMTokens != 0 {
		t.Error("script path consumed tokens")
	}

	// LLM path on the identical incident.
	inLLM := (&scenarios.DeviceFailure{}).Build(rand.New(rand.NewSource(5)))
	model := llm.NewSimLLM(kbase, 5)
	resLLM := baseline.RunTSG(inLLM.World, tsg, registryFor(inLLM, kb.NewHistory()), model)
	if !resLLM.Completed || !resLLM.Mitigated {
		t.Fatalf("LLM TSG run failed: %+v", resLLM)
	}
	if resLLM.LLMTokens == 0 {
		t.Error("LLM path consumed no tokens")
	}
	if !resLLM.Applied.Satisfies(resScript.Applied.Actions) {
		t.Errorf("paths diverged: script=%v llm=%v", resScript.Applied, resLLM.Applied)
	}
	if resLLM.Elapsed <= resScript.Elapsed {
		t.Error("LLM path should be slower (inference latency)")
	}
}

func TestTSGCostDoesNotAmortize(t *testing.T) {
	t.Parallel()
	m := baseline.DefaultCostModel()
	// A year of operation: monthly TSG revisions, 20 incidents/month,
	// ~2000 tokens per automated run.
	llmCost := m.LLMTSGCost(12, 240, 2000)
	scriptCost := m.ScriptCost(12)
	if llmCost.Total() <= scriptCost.Total() {
		t.Fatalf("paper's conclusion inverted: llm=$%.0f script=$%.0f", llmCost.Total(), scriptCost.Total())
	}
	// And the gap grows with change rate.
	llm2 := m.LLMTSGCost(24, 240, 2000)
	script2 := m.ScriptCost(24)
	if llm2.Total()-script2.Total() <= llmCost.Total()-scriptCost.Total() {
		t.Error("cost gap should grow with TSG churn")
	}
	if llmCost.String() == "" || scriptCost.String() == "" {
		t.Error("cost report rendering empty")
	}
	_ = mitigation.NoOp
}
