package parallel

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestResultsIndependentOfWorkers is the package's core contract: the
// result slice (trials, seeds, values) is bit-identical for any worker
// count.
func TestResultsIndependentOfWorkers(t *testing.T) {
	t.Parallel()
	const n, base = 64, int64(42)
	fn := func(seed int64, trial int) int64 {
		// A deterministic but seed-sensitive computation.
		return rand.New(rand.NewSource(seed)).Int63() ^ int64(trial)
	}
	ref := RunTrials(n, 1, base, fn)
	for _, workers := range []int{2, 3, 8, 64, 200} {
		got := RunTrials(n, workers, base, fn)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(ref))
		}
		for i := range got {
			if got[i].Value != ref[i].Value {
				t.Fatalf("workers=%d trial %d: got %d, want %d", workers, i, got[i].Value, ref[i].Value)
			}
		}
	}
}

// TestSeedsMatchDeriveSeed pins the seed each trial receives.
func TestSeedsMatchDeriveSeed(t *testing.T) {
	t.Parallel()
	rs := RunTrials(20, 4, 7, func(seed int64, trial int) int64 { return seed })
	for i, r := range rs {
		want := DeriveSeed(7, i)
		if r.Value != want {
			t.Fatalf("trial %d: seed %d, want %d", i, r.Value, want)
		}
	}
}

// TestDeriveSeedNoCollisions checks injectivity over a dense index range
// for several bases (the fuzz test probes sparse adversarial pairs).
func TestDeriveSeedNoCollisions(t *testing.T) {
	t.Parallel()
	for _, base := range []int64{0, 1, -1, 42, 1 << 62} {
		seen := make(map[int64]int, 10000)
		for i := 0; i < 10000; i++ {
			s := DeriveSeed(base, i)
			if j, ok := seen[s]; ok {
				t.Fatalf("base %d: trials %d and %d share seed %d", base, j, i, s)
			}
			seen[s] = i
		}
	}
}

// TestPanicCapture converts a crashed trial into a recorded error while
// its siblings complete normally.
func TestPanicCapture(t *testing.T) {
	t.Parallel()
	rs := RunTrials(10, 4, 1, func(seed int64, trial int) int {
		if trial == 3 {
			panic("trial exploded")
		}
		return trial * 2
	})
	var pe *PanicError
	if err := rs[3].Err; !errors.As(err, &pe) {
		t.Fatalf("trial 3 error = %v, want *PanicError", err)
	}
	if pe.Trial != 3 || pe.Value != "trial exploded" {
		t.Fatalf("panic recorded on trial %d with value %v, want trial 3 with its panic value", pe.Trial, pe.Value)
	}
	for i, r := range rs {
		if i != 3 && (r.Err != nil || r.Value != i*2) {
			t.Fatalf("trial %d: value %d err %v, want %d nil", i, r.Value, r.Err, i*2)
		}
	}
}

// TestBoundedConcurrency checks the pool never runs more trials at once
// than the requested worker count.
func TestBoundedConcurrency(t *testing.T) {
	t.Parallel()
	const workers = 3
	var inFlight, peak atomic.Int64
	RunTrials(60, workers, 5, func(seed int64, trial int) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		// Busy the slot briefly so overlap is observable.
		s := int64(0)
		for i := 0; i < 1000; i++ {
			s += DeriveSeed(seed, i)
		}
		return int(s & 1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent trials, want <= %d", p, workers)
	}
}

// TestEdgeCases covers empty runs and worker normalization.
func TestEdgeCases(t *testing.T) {
	t.Parallel()
	if rs := RunTrials(0, 8, 1, func(int64, int) int { return 1 }); rs != nil {
		t.Fatalf("n=0 returned %v, want nil", rs)
	}
	if rs := RunTrials(3, -1, 1, func(int64, int) int { return 1 }); len(rs) != 3 {
		t.Fatalf("workers=-1: %d results, want 3", len(rs))
	}
	if w := Workers(0, 100); w < 1 {
		t.Fatalf("Workers(0,100) = %d, want >= 1", w)
	}
	if w := Workers(16, 4); w != 4 {
		t.Fatalf("Workers(16,4) = %d, want 4 (capped at n)", w)
	}
}
