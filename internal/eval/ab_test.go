package eval_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/kb"
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

func TestArmStatsAccessors(t *testing.T) {
	t.Parallel()
	s := &eval.ArmStats{}
	if s.MitigationRate() != 0 || s.CorrectRate() != 0 {
		t.Error("empty arm rates nonzero")
	}
}
