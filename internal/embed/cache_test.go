package embed

import (
	"fmt"
	"strings"
	"testing"
)

// The memo tests are deliberately not parallel: they reset the memo,
// which is process-wide state shared with any test that embeds text.

// resetMemo empties the process-wide memo, as reaching memoMax does.
func resetMemo() {
	memoMu.Lock()
	memoVecs = make(map[memoKey]memoEntry)
	memoMu.Unlock()
}

// A text the memo has seen is a hit: the store gets the published
// vector itself, whichever store embedded it first. A novel text is a
// miss and publishes a new vector.
func TestEmbedMemoHitMissAccounting(t *testing.T) {
	if !embedCacheEnabled.Load() {
		t.Skip("embed cache disabled")
	}
	resetMemo()
	same := func(a, b []float32) bool { return &a[0] == &b[0] }
	s := NewStore(NewDomainEmbedder(64))
	s.Add("a", "packet loss in us-east after config push")
	s.Add("b", "fiber cut on the backbone")
	if same(s.vecs[0], s.vecs[1]) {
		t.Fatal("two distinct texts share one vector")
	}
	if q, _ := s.embedText("packet loss in us-east after config push"); !same(q, s.vecs[0]) {
		t.Fatal("query matching a stored text should hit the memo")
	}
	q1, _ := s.embedText("latency spikes in eu-north")
	if same(q1, s.vecs[0]) || same(q1, s.vecs[1]) {
		t.Fatal("novel query should miss")
	}
	other := NewStore(NewDomainEmbedder(64))
	if q2, _ := other.embedText("latency spikes in eu-north"); !same(q2, q1) {
		t.Fatal("another store's repeat of the query should hit the published vector")
	}
	if q3, _ := NewStore(NewDomainEmbedder(32)).embedText("latency spikes in eu-north"); len(q3) != 32 {
		t.Fatalf("an embedder of another dimension was served a %d-dim vector", len(q3))
	}
}

// The Cosine double-work fix: a warm store serves repeat embeddings with
// zero allocations — no re-embedding, no norm re-accumulation buffers.
func TestEmbedTextWarmZeroAllocs(t *testing.T) {
	if !embedCacheEnabled.Load() {
		t.Skip("embed cache disabled")
	}
	resetMemo()
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
// results: a run with a tiny bound matches an unbounded one.
func TestEmbedMemoBounded(t *testing.T) {
	if !embedCacheEnabled.Load() {
		t.Skip("embed cache disabled")
	}
	defer func(old int) { memoMax = old }(memoMax)
	run := func(bound int) (results string, peak int) {
		memoMax = bound
		resetMemo()
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
		return b.String(), peak
	}
	r1, peak := run(16)
	r2, unbounded := run(1 << 30)
	if peak > 16 {
		t.Fatalf("memo grew to %d entries, bound 16", peak)
	}
	if unbounded <= 16 {
		t.Fatalf("setup: the unbounded memo peaked at %d entries, want more than the bound", unbounded)
	}
	if r1 != r2 {
		t.Fatal("bounded memo changed search results")
	}
}
