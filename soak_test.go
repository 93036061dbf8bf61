package aiops

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/parallel"
	"repro/internal/scenarios"
)

// TestSoakInvariants drives a large randomized stream of incidents —
// random scenario, random hallucination rate, random OCE expertise,
// random context window — through the helper and asserts the invariants
// that must hold no matter how degraded the model is:
//
//  1. every session terminates (mitigated or escalated) within bounds;
//  2. TTM is positive and finite;
//  3. "mitigated" is never reported with live impact (the verifier and
//     the stability window guarantee it);
//  4. with the quantitative risk gate on, no executed plan ever makes a
//     service measurably worse (zero secondary impact);
//  5. token accounting is monotone and positive whenever the model ran.
//
// This is the repository's failure-injection harness: the model is the
// unreliable component, and the framework must convert its failures into
// time, never into damage.
func TestSoakInvariants(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	all := scenarios.All()
	rng := rand.New(rand.NewSource(20260706))

	// The degraded-helper configurations are drawn serially (the draw
	// sequence defines the stream); the sessions then run concurrently on
	// the parallel trial pool, each over its own private world — the
	// production shape: many independent incident sessions in flight.
	const n = 150
	type spec struct {
		sc            scenarios.Scenario
		seed          int64
		hallucination float64
		expertise     float64
		window        int
	}
	specs := make([]spec, n)
	for i := range specs {
		s := spec{
			sc:            all[rng.Intn(len(all))],
			seed:          rng.Int63(),
			hallucination: rng.Float64() * 0.4,
			expertise:     0.3 + rng.Float64()*0.7,
		}
		if rng.Intn(3) == 0 {
			s.window = 256 + rng.Intn(4096)
		}
		specs[i] = s
	}

	type outcome struct {
		res        harness.Result
		worldClean bool // verifier state of the trial's world post-session
	}
	trials := parallel.RunTrials(n, 8, 20260706, func(_ int64, i int) outcome {
		s := specs[i]
		in := s.sc.Build(rand.New(rand.NewSource(s.seed)))
		r := &harness.HelperRunner{
			KBase:         kbase,
			Config:        core.DefaultConfig(),
			Hallucination: s.hallucination,
			Expertise:     s.expertise,
			Window:        s.window,
		}
		res := r.Run(in, s.seed)
		v := &mitigation.Verifier{World: in.World}
		return outcome{res: res, worldClean: v.Mitigated()}
	})

	// Invariant 6 (pool): no trial result is lost or misrouted — slot i
	// holds trial i's scenario's result.
	if len(trials) != n {
		t.Fatalf("pool returned %d results for %d trials", len(trials), n)
	}
	for i, tr := range trials {
		if tr.Err != nil {
			t.Fatalf("trial %d panicked: %v", i, tr.Err)
		}
		if want := specs[i].sc.Name(); tr.Value.res.Scenario != want {
			t.Fatalf("trial %d carries result for %q, want %q (result misrouted)", i, tr.Value.res.Scenario, want)
		}
	}

	mitigated, escalated := 0, 0
	for i, tr := range trials {
		res, sc := tr.Value.res, specs[i].sc
		if !res.Mitigated && !res.Escalated {
			t.Fatalf("incident %d (%s): session ended in limbo", i, sc.Name())
		}
		if res.TTM <= 0 {
			t.Fatalf("incident %d (%s): TTM = %v", i, sc.Name(), res.TTM)
		}
		if res.TTM.Hours() > 24 {
			t.Fatalf("incident %d (%s): TTM = %v, runaway session", i, sc.Name(), res.TTM)
		}
		if res.Mitigated {
			mitigated++
			// The live world must verify clean when the helper claims
			// mitigation (invariant 3).
			if !tr.Value.worldClean {
				t.Fatalf("incident %d (%s): claimed mitigated but world has live impact", i, sc.Name())
			}
		} else {
			escalated++
		}
		if res.Secondary != 0 {
			t.Fatalf("incident %d (%s): secondary impact %d with risk gates on", i, sc.Name(), res.Secondary)
		}
		if res.LLMCalls > 0 && res.Tokens <= 0 {
			t.Fatalf("incident %d: %d LLM calls but %d tokens", i, res.LLMCalls, res.Tokens)
		}
	}
	t.Logf("soak: %d mitigated, %d escalated of %d", mitigated, escalated, n)
	if mitigated < n/2 {
		t.Fatalf("degraded helpers mitigated only %d/%d", mitigated, n)
	}
	_ = llm.DefaultPricing()
}
