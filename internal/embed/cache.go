package embed

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file implements the embedding memo: Embed is a pure function of
// (embedder name, dimension, text), and memoKey holds all three, so
// results are shared process-wide and a memoized vector can never be
// stale. Once any trial embeds a KB entry or hypothesis string, every
// later trial reuses the vector. Vectors are immutable after
// publication, so sharing the slices across goroutines is safe.
//
// The memo is bounded: query texts (an incident's title and summary)
// are unique per incident, so a long-running process would otherwise
// keep one vector per incident it ever served. When the memo reaches
// memoMax entries it starts over from an empty map; the next trial to
// embed an evicted text recomputes the same vector.

// embedCacheEnabled gates memoization so benchmarks and determinism
// tests can diff cached vs uncached behavior.
var embedCacheEnabled atomic.Bool

func init() { embedCacheEnabled.Store(true) }

// SetEmbedCacheEnabled toggles the embedding memo process-wide (the
// -nocache CLI flag and the cache-off determinism tests use it). Toggle
// between runs, not mid-run.
func SetEmbedCacheEnabled(on bool) { embedCacheEnabled.Store(on) }

type memoKey struct {
	name string
	dim  int
	text string
}

// memoEntry pairs a vector with its precomputed squared L2 norm so
// Cosine never re-accumulates it per comparison.
type memoEntry struct {
	vec  []float32
	norm float64
}

// memoMax bounds the global memo's entry count.
var memoMax = 2048

var (
	memoMu   sync.RWMutex
	memoVecs = make(map[memoKey]memoEntry)
)

// sqNorm returns the squared L2 norm accumulated exactly as Cosine
// accumulates its na/nb terms, so substituting it is bit-identical.
func sqNorm(v []float32) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	return sum
}

// embedText returns the (possibly memoized) embedding of text and its
// squared norm.
func (s *Store) embedText(text string) ([]float32, float64) {
	if !embedCacheEnabled.Load() {
		v := s.emb.Embed(text)
		return v, sqNorm(v)
	}
	k := memoKey{name: s.emb.Name(), dim: s.emb.Dim(), text: text}
	memoMu.RLock()
	e, ok := memoVecs[k]
	memoMu.RUnlock()
	if ok {
		return e.vec, e.norm
	}
	v := s.emb.Embed(text)
	e = memoEntry{vec: v, norm: sqNorm(v)}
	memoMu.Lock()
	if prior, again := memoVecs[k]; again {
		e = prior // keep the first published entry
	} else {
		if len(memoVecs) >= memoMax {
			memoVecs = make(map[memoKey]memoEntry)
		}
		memoVecs[k] = e
	}
	memoMu.Unlock()
	return e.vec, e.norm
}

// cosineWithNorms is Cosine with the squared norms precomputed. Because
// dot, na and nb accumulate independently in Cosine, passing separately
// accumulated norms yields bit-identical results.
func cosineWithNorms(a, b []float32, na, nb float64) float64 {
	if len(a) != len(b) {
		panic("embed: cosine of vectors with different dimensions")
	}
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
