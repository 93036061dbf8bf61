package randsrc

import (
	"math"
	"math/rand"
	"testing"
)

// testSeeds covers the seed normalization edges — zero and its stand-in,
// multiples of the MINSTD modulus, the int64 extremes — plus a spread of
// ordinary positive and negative seeds.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 42, zeroSeed, -zeroSeed,
		modulus, -modulus, modulus - 1, -(modulus - 1), modulus + 1, 2 * modulus, -2 * modulus,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		0x5eed, 0xabcdef, 0x0ce, 0xb007,
	}
	r := rand.New(rand.NewSource(20261017))
	for len(seeds) < 311 {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	return seeds
}

func TestUint64MatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for k := 0; k < 3000; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, k, g, w)
			}
		}
	}
}

// TestRandMethodsMatchMathRand checks the derived distributions callers
// actually use, each from a fresh pair so a short stream is exercised
// as well as a long one.
func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds()[:40] {
		want, got := rand.New(rand.NewSource(seed)), New(seed)
		for k := 0; k < 200; k++ {
			if w, g := want.Intn(1000), got.Intn(1000); w != g {
				t.Fatalf("seed %d Intn %d: got %d, want %d", seed, k, g, w)
			}
			if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
				t.Fatalf("seed %d ExpFloat64 %d: got %v, want %v", seed, k, g, w)
			}
			if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
				t.Fatalf("seed %d NormFloat64 %d: got %v, want %v", seed, k, g, w)
			}
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d Float64 %d: got %v, want %v", seed, k, g, w)
			}
		}
		wp, gp := want.Perm(50), got.Perm(50)
		for i := range wp {
			if wp[i] != gp[i] {
				t.Fatalf("seed %d Perm: got %v, want %v", seed, gp, wp)
			}
		}
	}
}

// FuzzSourceMatchesMathRand is the differential oracle: for any seed, a
// stream mixing Int63, Uint64 and mid-stream re-seeding must match
// math/rand draw for draw. The reference's own outputs pick the next
// operation, so one fuzz input explores many interleavings.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		var last uint64
		for k := 0; k < int(draws); k++ {
			switch op := last % 64; {
			case op == 0:
				s := int64(last)
				want.Seed(s)
				got.Seed(s)
			case op == 1:
				s := seed + int64(k)*modulus
				want.Seed(s)
				got.Seed(s)
			case op < 32:
				w, g := want.Int63(), got.Int63()
				if w != g {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, k, g, w)
				}
				last = uint64(w)
			default:
				w, g := want.Uint64(), got.Uint64()
				if w != g {
					t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, k, g, w)
				}
				last = w
			}
		}
	})
}
