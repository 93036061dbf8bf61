package eval_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/scenarios"
)

func currentKB() *kb.KB {
	k := kb.Default()
	kb.ApplyFastpathUpdate(k)
	return k
}

// TestABHelperBeatsControl is §3's headline: the helper-assisted arm has
// significantly lower TTM than the helper-free control arm.
func TestABHelperBeatsControl(t *testing.T) {
	t.Parallel()
	kbase := currentKB()
	res := eval.ABTest(eval.ABConfig{N: 120, Seed: 1},
		&harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()},
		&harness.ControlRunner{KBase: kbase, Expertise: 0.8},
	)
	if res.Treatment.N+res.Control.N != 120 {
		t.Fatalf("arm sizes %d + %d", res.Treatment.N, res.Control.N)
	}
	if res.Treatment.N < 40 || res.Control.N < 40 {
		t.Fatalf("randomization badly unbalanced: %d vs %d", res.Treatment.N, res.Control.N)
	}
	if res.Treatment.MeanTTM() >= res.Control.MeanTTM() {
		t.Fatalf("helper arm mean TTM %.1f >= control %.1f", res.Treatment.MeanTTM(), res.Control.MeanTTM())
	}
	if !res.SignificantAt(0.05) {
		t.Errorf("difference not significant: welch p=%v mw p=%v", res.Welch.P, res.MannWhitney.P)
	}
	if res.PermP >= 0.05 {
		t.Errorf("permutation test p=%v", res.PermP)
	}
	// The CI for (treatment - control) must exclude zero from below.
	if res.DiffHi >= 0 {
		t.Errorf("bootstrap CI [%.1f, %.1f] includes zero", res.DiffLo, res.DiffHi)
	}
}

// TestABSameArmNotSignificant guards against the harness manufacturing
// significance: identical runners in both arms must not differ.
func TestABSameArmNotSignificant(t *testing.T) {
	t.Parallel()
	kbase := currentKB()
	mk := func() *harness.ControlRunner {
		return &harness.ControlRunner{KBase: kbase, Expertise: 0.8}
	}
	res := eval.ABTest(eval.ABConfig{N: 120, Seed: 2}, mk(), mk())
	if res.SignificantAt(0.05) {
		t.Errorf("identical arms called significant: welch p=%v mw p=%v", res.Welch.P, res.MannWhitney.P)
	}
}

// panicOnce crashes on its first call and defers every later one to
// the runner it wraps.
type panicOnce struct {
	harness.Runner
	calls atomic.Int32
}

func (p *panicOnce) Run(in *scenarios.Instance, seed int64) harness.Result {
	if p.calls.Add(1) == 1 {
		panic("helper crashed mid-incident")
	}
	return p.Runner.Run(in, seed)
}

// TestABCountsCrashedTrial: a trial whose runner panics stays in its
// arm as an escalation instead of dropping out of both arms, so a
// crashing helper cannot look better than it is.
func TestABCountsCrashedTrial(t *testing.T) {
	t.Parallel()
	kbase := currentKB()
	helper := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()}
	control := &harness.ControlRunner{KBase: kbase, Expertise: 0.8}
	cfg := eval.ABConfig{N: 16, Seed: 3, Workers: 1} // one worker: the first treatment draw crashes
	base := eval.ABTest(cfg, helper, control)
	crash := eval.ABTest(cfg, &panicOnce{Runner: helper}, control)
	if crash.Treatment.N != base.Treatment.N || crash.Control.N != base.Control.N {
		t.Fatalf("arm sizes %d/%d with a crashed trial, want %d/%d",
			crash.Treatment.N, crash.Control.N, base.Treatment.N, base.Control.N)
	}
	// Trials add to their arm in draw order, so the crashed one is the
	// treatment arm's first: an escalation at the full penalty, where
	// the helper had mitigated it under the escalation penalty.
	penalty := harness.EscalationPenalty.Minutes()
	if base.Treatment.N == 0 || base.Treatment.TTMMinutes[0] >= penalty {
		t.Fatalf("seed gives no first treatment trial the helper mitigates: %v", base.Treatment.TTMMinutes)
	}
	want := slices.Clone(base.Treatment.TTMMinutes)
	want[0] = penalty
	if !slices.Equal(crash.Treatment.TTMMinutes, want) {
		t.Errorf("treatment TTMs with a crashed trial = %v, want %v", crash.Treatment.TTMMinutes, want)
	}
	if crash.Treatment.Mitigated != base.Treatment.Mitigated-1 {
		t.Errorf("treatment mitigated %d with a crashed trial, want %d", crash.Treatment.Mitigated, base.Treatment.Mitigated-1)
	}
}

func TestArmStatsAccessors(t *testing.T) {
	t.Parallel()
	s := &eval.ArmStats{}
	if s.MitigationRate() != 0 || s.CorrectRate() != 0 {
		t.Error("empty arm rates nonzero")
	}
}
