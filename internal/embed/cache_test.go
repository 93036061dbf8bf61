package embed

import (
	"fmt"
	"strings"
	"testing"
)

// The memo tests are deliberately not parallel: they call
// InvalidateCache, which is process-wide state shared with any test that
// embeds text.

func TestEmbedMemoHitMissAccounting(t *testing.T) {
	if !EmbedCacheEnabled() {
		t.Skip("embed cache disabled")
	}
	InvalidateCache() // isolate from earlier tests' global warmth
	s := NewStore(NewDomainEmbedder(64))
	s.Add("a", "packet loss in us-east after config push")
	s.Add("b", "fiber cut on the backbone")
	if h, m := s.CacheStats(); h != 0 || m != 2 {
		t.Fatalf("after two distinct Adds: %d hits / %d misses, want 0/2", h, m)
	}
	s.Search("packet loss in us-east after config push", 1)
	if h, m := s.CacheStats(); h != 1 || m != 2 {
		t.Fatalf("query matching a stored text should hit: %d/%d, want 1/2", h, m)
	}
	s.Search("latency spikes in eu-north", 1)
	if h, m := s.CacheStats(); h != 1 || m != 3 {
		t.Fatalf("novel query should miss: %d/%d, want 1/3", h, m)
	}
	s.Search("latency spikes in eu-north", 1)
	if h, m := s.CacheStats(); h != 2 || m != 3 {
		t.Fatalf("repeated query should hit: %d/%d, want 2/3", h, m)
	}
}

// A store's counters must reflect only its own lookups: global-memo
// warmth left by another store (in production, another trial's) cannot
// turn this store's first sight of a text into a hit — that is what
// keeps the aiops_cache_* metrics identical at every worker count.
func TestEmbedMemoCountersAreStoreLocal(t *testing.T) {
	if !EmbedCacheEnabled() {
		t.Skip("embed cache disabled")
	}
	InvalidateCache()
	warm := NewStore(NewDomainEmbedder(64))
	warm.Add("a", "oscrash on tor switch")

	s := NewStore(NewDomainEmbedder(64))
	s.Add("a", "oscrash on tor switch") // globally warm, locally cold
	if h, m := s.CacheStats(); h != 0 || m != 1 {
		t.Fatalf("global warmth leaked into store counters: %d hits / %d misses", h, m)
	}
}

func TestInvalidateCacheEvictsStaleEmbeddings(t *testing.T) {
	if !EmbedCacheEnabled() {
		t.Skip("embed cache disabled")
	}
	InvalidateCache()
	s := NewStore(NewDomainEmbedder(64))
	s.Add("a", "packet loss in us-east")
	s.Search("packet loss in us-east", 1)
	h0, m0 := s.CacheStats()

	// The KB corpus changed (kb.Bump calls this): both the global memo
	// and every store's local view must drop, so the next lookup
	// recomputes instead of serving a vector derived from retired text.
	InvalidateCache()
	memoMu.RLock()
	left := len(memoVecs)
	memoMu.RUnlock()
	if left != 0 {
		t.Fatalf("global memo kept %d entries past invalidation", left)
	}
	s.Search("packet loss in us-east", 1)
	if h, m := s.CacheStats(); h != h0 || m != m0+1 {
		t.Fatalf("post-invalidation lookup should miss: %d/%d, want %d/%d", h, m, h0, m0+1)
	}
	// And the recomputed entry memoizes again.
	s.Search("packet loss in us-east", 1)
	if h, m := s.CacheStats(); h != h0+1 {
		t.Fatalf("re-warmed lookup should hit: %d/%d", h, m)
	}
}

// The Cosine double-work fix: a warm store serves repeat embeddings with
// zero allocations — no re-embedding, no norm re-accumulation buffers.
func TestEmbedTextWarmZeroAllocs(t *testing.T) {
	if !EmbedCacheEnabled() {
		t.Skip("embed cache disabled")
	}
	InvalidateCache()
	s := NewStore(NewDomainEmbedder(64))
	const text = "severe packet loss and retransmissions after config push"
	s.Add("a", text)
	if allocs := testing.AllocsPerRun(100, func() {
		s.embedText(text)
	}); allocs != 0 {
		t.Fatalf("warm embedText allocates %v per run, want 0", allocs)
	}
	// The similarity kernel itself is allocation-free too.
	q, qn := s.embedText(text)
	if allocs := testing.AllocsPerRun(100, func() {
		cosineWithNorms(q, s.vecs[0], qn, s.norms[0])
	}); allocs != 0 {
		t.Fatalf("cosineWithNorms allocates %v per run, want 0", allocs)
	}
}

// cosineWithNorms with norms from sqNorm must be bit-identical to Cosine
// — the cache substitutes one for the other in Search.
func TestCosineWithNormsBitIdentical(t *testing.T) {
	e := NewDomainEmbedder(128)
	texts := []string{
		"packet loss in us-east after config push",
		"fiber cut on the backbone carrier",
		"latency spikes and congestion in the web tier",
		"device resetting with watchdog exceptions",
	}
	for i, ta := range texts {
		for _, tb := range texts[i:] {
			a, b := e.Embed(ta), e.Embed(tb)
			want := Cosine(a, b)
			if got := cosineWithNorms(a, b, sqNorm(a), sqNorm(b)); got != want {
				t.Fatalf("cosineWithNorms(%q, %q) = %v, Cosine = %v", ta, tb, got, want)
			}
		}
	}
}

// The global memo stays bounded over many distinct query texts (each
// incident's are unique), and starting it over changes no store's
// counters or results: a run with a tiny bound matches an unbounded one.
func TestEmbedMemoBounded(t *testing.T) {
	if !EmbedCacheEnabled() {
		t.Skip("embed cache disabled")
	}
	defer func(old int) { memoMax = old }(memoMax)
	run := func(bound int) (hits, misses int64, results string, peak int) {
		memoMax = bound
		InvalidateCache()
		s := NewStore(NewDomainEmbedder(64))
		for i := range 20 {
			s.Add(fmt.Sprint("kb", i), fmt.Sprintf("known failure %d on device tor-%d", i, i%7))
		}
		var b strings.Builder
		for i := range 300 {
			// A unique query per "incident", then a repeat of an old one.
			for _, q := range []string{fmt.Sprintf("incident %d: loss on link %d", i, i%11), fmt.Sprintf("incident %d: loss on link %d", i/2, (i/2)%11)} {
				fmt.Fprintln(&b, s.Search(q, 2))
			}
			memoMu.RLock()
			peak = max(peak, len(memoVecs))
			memoMu.RUnlock()
		}
		hits, misses = s.CacheStats()
		return hits, misses, b.String(), peak
	}
	h1, m1, r1, peak := run(16)
	h2, m2, r2, unbounded := run(1 << 30)
	if peak > 16 {
		t.Fatalf("memo grew to %d entries, bound 16", peak)
	}
	if unbounded <= 16 {
		t.Fatalf("setup: the unbounded memo peaked at %d entries, want more than the bound", unbounded)
	}
	if h1 != h2 || m1 != m2 {
		t.Fatalf("bounded memo counters %d/%d, unbounded %d/%d", h1, m1, h2, m2)
	}
	if r1 != r2 {
		t.Fatal("bounded memo changed search results")
	}
}
