// Package randsrc provides math/rand sources that produce exactly the
// stream of rand.NewSource(seed) at a fraction of its seeding cost.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register. Seeding fills that register by running 1,841
// serial MINSTD steps (x ← 48271·x mod 2³¹−1), which costs far more
// than the handful of draws a per-session source usually serves. But
// the k-th MINSTD state is seed·48271^k mod 2³¹−1, and register word i
// depends only on states 21+3i, 22+3i and 23+3i, so each word can be
// computed on its own from a table of powers. A Source computes a word
// the first time the generator reads it; a caller that draws once
// computes 2 of the 607.
package randsrc

import "math/rand"

const (
	length = 607 // register words
	tap    = 273 // lag of the second feedback tap
	mask   = 1<<63 - 1

	modulus    = 1<<31 - 1 // MINSTD prime
	multiplier = 48271
	warmup     = 20       // MINSTD steps discarded before word 0
	zeroSeed   = 89482311 // math/rand's stand-in for a seed ≡ 0
)

var (
	// powers[k] is 48271^k mod 2³¹−1 for every MINSTD step a seed
	// takes.
	powers [warmup + 1 + 3*length]uint64
	// cooked is the table math/rand XORs into every seeded register.
	cooked [length]uint64
)

func init() {
	powers[0] = 1
	for k := 1; k < len(powers); k++ {
		powers[k] = mulmod(powers[k-1], multiplier)
	}

	// math/rand does not export its cooked table, so recover it from
	// the reference generator. Output k adds register words
	// feed(k) = (333−k) mod 607 and 606−k, then overwrites feed(k).
	// The 607 feed words are all distinct, so each is still initial
	// when read; from k = 273 on, word 606−k is feed(k−273), which
	// output k−273 overwrote. That makes seed 1's initial register
	// solvable from its first 607 outputs, and XOR-ing out seed 1's
	// MINSTD part leaves the cooked table.
	ref := rand.NewSource(1).(rand.Source64)
	var out, reg [length]uint64
	for k := range out {
		out[k] = ref.Uint64()
	}
	feed := func(k int) int { return (2*length - tap - 1 - k) % length }
	for k := tap; k < length; k++ {
		reg[feed(k)] = out[k] - out[k-tap]
	}
	for k := 0; k < tap; k++ {
		reg[feed(k)] = out[k] - reg[length-1-k]
	}
	for i := range cooked {
		cooked[i] = reg[i] ^ minstdWord(1, i)
	}
}

// mulmod returns a·b mod 2³¹−1 for a, b < 2³¹−1: two folds of the
// Mersenne modulus and one conditional subtraction.
func mulmod(a, b uint64) uint64 {
	t := a * b
	t = t&modulus + t>>31
	t = t&modulus + t>>31
	if t >= modulus {
		t -= modulus
	}
	return t
}

// minstdWord is the MINSTD part of register word i for normalized seed
// x: math/rand packs three consecutive states into one 64-bit word.
func minstdWord(x uint64, i int) uint64 {
	k := warmup + 1 + 3*i
	return mulmod(x, powers[k])<<40 ^ mulmod(x, powers[k+1])<<20 ^ mulmod(x, powers[k+2])
}

// source is math/rand's generator with a lazily filled register.
type source struct {
	tap, feed int
	x         uint64                     // normalized seed, in [1, 2³¹−1)
	have      [(length + 63) / 64]uint64 // bit i: vec[i] is computed
	vec       [length]uint64
}

// NewSource returns a source whose Int63 and Uint64 streams are those
// of rand.NewSource(seed), including after Seed. Like math/rand's, it
// is not safe for concurrent use.
func NewSource(seed int64) rand.Source64 {
	s := new(source)
	s.Seed(seed)
	return s
}

// New returns rand.New(NewSource(seed)): the same values, for every
// method, as rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand { return rand.New(NewSource(seed)) }

// Seed resets the source to the stream rand.NewSource(seed) produces.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - tap
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x = uint64(seed)
	s.have = [len(s.have)]uint64{}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() & mask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	if s.have[s.tap>>6]&(1<<(s.tap&63)) == 0 {
		s.fill(s.tap)
	}
	if s.have[s.feed>>6]&(1<<(s.feed&63)) == 0 {
		s.fill(s.feed)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// fill computes register word i as math/rand's Seed would have.
func (s *source) fill(i int) {
	s.have[i>>6] |= 1 << (i & 63)
	s.vec[i] = minstdWord(s.x, i) ^ cooked[i]
}
