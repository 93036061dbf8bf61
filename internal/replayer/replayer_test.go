package replayer_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/mitigation"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

func TestGenerateCorpus(t *testing.T) {
	t.Parallel()
	c := replayer.Generate(replayer.Options{N: 60, Seed: 1})
	if len(c.Items) != 60 || c.History.Len() != 60 {
		t.Fatalf("corpus size %d / history %d", len(c.Items), c.History.Len())
	}
	resolved := 0
	classes := map[string]bool{}
	for _, it := range c.Items {
		classes[it.Scenario] = true
		if it.Record.TTMMinutes <= 0 {
			t.Fatalf("item %s has TTM %v", it.Record.ID, it.Record.TTMMinutes)
		}
		// An unresolved item's TTM carries the escalation penalty, so a
		// shorter one was resolved by the operator.
		if it.Record.TTMMinutes < harness.EscalationPenalty.Minutes() {
			resolved++
			if len(it.Record.Mitigation) == 0 {
				t.Fatalf("resolved item %s has no mitigation", it.Record.ID)
			}
		}
	}
	if resolved < 40 {
		t.Errorf("only %d/60 historically resolved", resolved)
	}
	if len(classes) < 3 {
		t.Errorf("corpus covers only %v", classes)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	a := replayer.Generate(replayer.Options{N: 20, Seed: 7})
	b := replayer.Generate(replayer.Options{N: 20, Seed: 7})
	for i := range a.Items {
		if a.Items[i].Record.TTMMinutes != b.Items[i].Record.TTMMinutes ||
			a.Items[i].Scenario != b.Items[i].Scenario {
			t.Fatalf("corpus not deterministic at %d", i)
		}
	}
}

func TestReplayHelperBeatsHistory(t *testing.T) {
	t.Parallel()
	c := replayer.Generate(replayer.Options{N: 50, Seed: 2})
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: c.History}

	rep := replayer.ReplayObserved(c, runner, 0, nil)
	if len(rep.Items) != 50 {
		t.Fatalf("replayed %d items", len(rep.Items))
	}
	if rep.MatchFraction() < 0.5 {
		t.Errorf("match fraction %.2f too low (matched=%d mismatched=%d unresolved=%d)",
			rep.MatchFraction(), rep.Matched, rep.Mismatched, rep.Unresolved)
	}
	if rep.MeanSavings <= 0 {
		t.Errorf("helper saves no time over history: %v", rep.MeanSavings)
	}
	// Accounting adds up.
	if rep.Matched+rep.Mismatched+rep.Unresolved != len(rep.Items) {
		t.Error("item accounting inconsistent")
	}
	// Conditional estimates only appear on mismatches and carry samples.
	for _, it := range rep.Items {
		if it.Match && it.CondN != 0 {
			t.Error("matched item has conditional estimate")
		}
		if it.CondN > 0 && it.CondEstimate <= 0 {
			t.Error("conditional estimate without value")
		}
	}
}

// fixedPlanRunner always applies the same mitigation class — it forces
// mismatches so the conditional estimator's behavior is deterministic.
type fixedPlanRunner struct{ inner harness.Runner }

func (f *fixedPlanRunner) Name() string { return "fixed-plan" }

func (f *fixedPlanRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	res := f.inner.Run(in, seed)
	// Report a different-but-historically-common plan class than what the
	// operator recorded, keeping the mitigated flag.
	res.Applied.Actions = []mitigation.Action{{Kind: mitigation.RateLimitService, Target: "zz-other", Param: "0.5"}}
	return res
}

func TestReplayMismatchGetsConditionalEstimate(t *testing.T) {
	t.Parallel()
	// Corpus mixes congestion (operators rate-limit) and gray links
	// (operators isolate). A runner that always reports a rate-limit
	// plan mismatches every gray-link incident, and each mismatch must
	// pick up a conditional estimate from the corpus's rate-limit
	// history.
	c := replayer.Generate(replayer.Options{
		N: 40, Seed: 3,
		Mix: []scenarios.Scenario{&scenarios.Congestion{}, &scenarios.GrayLink{}},
	})
	kbase := kb.Default()
	inner := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: c.History}
	rep := replayer.ReplayObserved(c, &fixedPlanRunner{inner: inner}, 0, nil)
	if rep.Mismatched == 0 {
		t.Fatal("expected mismatches with a fixed foreign plan")
	}
	if rep.CondCovered == 0 {
		t.Fatalf("no conditional estimates for %d mismatches", rep.Mismatched)
	}
	for _, it := range rep.Items {
		if it.CondN > 0 && it.CondEstimate <= 0 {
			t.Error("conditional estimate without value")
		}
	}
	_ = time.Minute
}

// panicOnceRunner crashes on the corpus item whose seed is crashSeed.
type panicOnceRunner struct {
	inner     harness.Runner
	crashSeed int64
}

func (p *panicOnceRunner) Name() string { return "panic-once" }

func (p *panicOnceRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	if seed == p.crashSeed {
		panic("runner crashed")
	}
	return p.inner.Run(in, seed)
}

// TestReplayCountsCrashedTrial: a runner that panics on one item must
// not shrink the report; the item counts as unresolved with the
// escalation penalty, as harness.PoolResult counts a crashed trial.
func TestReplayCountsCrashedTrial(t *testing.T) {
	t.Parallel()
	c := replayer.Generate(replayer.Options{N: 12, Seed: 4})
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	inner := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: c.History}
	base := replayer.ReplayObserved(c, inner, 2, nil)
	rep := replayer.ReplayObserved(c, &panicOnceRunner{inner: inner, crashSeed: c.Items[5].Seed}, 2, nil)
	if len(rep.Items) != len(c.Items) {
		t.Fatalf("report has %d items, corpus %d: the crashed trial was dropped", len(rep.Items), len(c.Items))
	}
	crashed := rep.Items[5]
	if crashed.Scenario != c.Items[5].Scenario || crashed.Match || crashed.HelperTTM != harness.EscalationPenalty {
		t.Fatalf("crashed item = %+v, want unresolved at the escalation penalty", crashed)
	}
	wantUnresolved := base.Unresolved
	if harness.BuildAndRun(inner, scenarios.ByName(c.Items[5].Scenario), c.Items[5].Seed).Mitigated {
		wantUnresolved++
	}
	if rep.Unresolved != wantUnresolved {
		t.Errorf("unresolved = %d, want %d", rep.Unresolved, wantUnresolved)
	}
}
