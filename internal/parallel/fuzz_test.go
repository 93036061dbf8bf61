package parallel

import "testing"

// FuzzDeriveSeed probes the two properties the evaluation stack depends
// on: (a) no two trial indices ever derive the same seed from one base,
// and (b) the derivation is a pure function of (base, trial) — the same
// pair always yields the same seed, so worker count cannot matter.
func FuzzDeriveSeed(f *testing.F) {
	f.Add(int64(0), uint16(0), uint16(1))
	f.Add(int64(42), uint16(3), uint16(4))
	f.Add(int64(-1), uint16(0), uint16(65535))
	f.Add(int64(1)<<62, uint16(100), uint16(200))
	f.Fuzz(func(t *testing.T, base int64, a, b uint16) {
		sa, sb := DeriveSeed(base, int(a)), DeriveSeed(base, int(b))
		if a != b && sa == sb {
			t.Fatalf("seed collision: base=%d trials %d and %d both derive %d", base, a, b, sa)
		}
		if again := DeriveSeed(base, int(a)); again != sa {
			t.Fatalf("derivation unstable: base=%d trial=%d gave %d then %d", base, a, sa, again)
		}
	})
}

// FuzzRunTrialsSeedStability drives the pool itself at fuzzer-chosen
// sizes and worker counts and asserts every trial received exactly the
// seed DeriveSeed pins for it — scheduling can never reassign seeds.
func FuzzRunTrialsSeedStability(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1))
	f.Add(int64(99), uint8(32), uint8(8))
	f.Add(int64(-7), uint8(200), uint8(16))
	f.Fuzz(func(t *testing.T, base int64, n, workers uint8) {
		rs := RunTrials(int(n), int(workers), base, func(seed int64, trial int) int64 { return seed })
		if len(rs) != int(n) {
			t.Fatalf("n=%d workers=%d: %d results", n, workers, len(rs))
		}
		for i, r := range rs {
			if want := DeriveSeed(base, i); r.Value != want {
				t.Fatalf("n=%d workers=%d trial %d: got seed %d, want %d",
					n, workers, i, r.Value, want)
			}
		}
	})
}
