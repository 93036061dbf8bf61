// Package embed implements text embeddings and a vector store for
// incident-similarity retrieval.
//
// The paper (§4.4 "Network-focused Embeddings") observes that retrieval
// frameworks embed text with generic models "trained on non-network
// specific data" and calls for network-specific embedding models. This
// package provides both ends of that contrast:
//
//   - HashEmbedder: a generic character-n-gram hashing embedder — a stand
//     in for an off-the-shelf sentence encoder with no domain knowledge.
//   - DomainEmbedder: the same machinery with a networking-aware
//     tokenizer: domain synonyms fold to shared canonical tokens
//     ("drop", "discard" and "loss" embed identically) and domain terms
//     carry extra weight, so incidents that describe the same failure
//     with different words land near each other.
//
// The store supports exact cosine search and LSH (random-hyperplane)
// approximate search, mirroring the vector-database architecture the
// paper describes.
package embed

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/randsrc"
)

// Embedder maps text to a fixed-dimension unit vector.
type Embedder interface {
	Name() string
	Dim() int
	Embed(text string) []float32
}

// fnv32a hashes s with the FNV-1a function; used to bucket tokens into
// vector dimensions deterministically.
func fnv32a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// normalize scales v to unit length in place and returns it. Zero vectors
// are returned unchanged.
func normalize(v []float32) []float32 {
	var sum float64
	for _, x := range v {
		sum += float64(x) * float64(x)
	}
	if sum == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Cosine returns the cosine similarity of two equal-length vectors.
func Cosine(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("embed: cosine of vectors with different dimensions")
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// HashEmbedder is the generic baseline: character trigrams hashed into a
// fixed-dimension bag, signed by a second hash, L2-normalized.
type HashEmbedder struct {
	Dims int
}

// NewHashEmbedder returns a generic embedder with the given dimension
// (128 if non-positive).
func NewHashEmbedder(dims int) *HashEmbedder {
	if dims <= 0 {
		dims = 128
	}
	return &HashEmbedder{Dims: dims}
}

// Name implements Embedder.
func (e *HashEmbedder) Name() string { return "generic-hash" }

// Dim implements Embedder.
func (e *HashEmbedder) Dim() int { return e.Dims }

// Embed implements Embedder.
func (e *HashEmbedder) Embed(text string) []float32 {
	v := make([]float32, e.Dims)
	t := strings.ToLower(text)
	for i := 0; i+3 <= len(t); i++ {
		tri := t[i : i+3]
		h := fnv32a(tri)
		idx := int(h % uint32(e.Dims))
		sign := float32(1)
		if (h>>16)&1 == 1 {
			sign = -1
		}
		v[idx] += sign
	}
	return normalize(v)
}

// domainSynonyms folds networking vocabulary onto canonical tokens. The
// table is the "network-specific training" of the domain embedder.
var domainSynonyms = map[string]string{
	"loss": "pktloss", "losses": "pktloss", "drop": "pktloss", "drops": "pktloss",
	"dropped": "pktloss", "dropping": "pktloss", "discard": "pktloss", "discards": "pktloss",
	"retransmissions": "pktloss", "retransmits": "pktloss", "blackhole": "pktloss", "blackholed": "pktloss",

	"crash": "oscrash", "crashed": "oscrash", "panic": "oscrash", "wedge": "oscrash",
	"wedged": "oscrash", "unresponsive": "oscrash", "reset": "oscrash", "resetting": "oscrash",
	"watchdog": "oscrash", "exception": "oscrash",

	"congestion": "overload", "congested": "overload", "overload": "overload",
	"overloaded": "overload", "hot": "overload", "utilization": "overload", "saturated": "overload",

	"reroute": "failover", "rerouted": "failover", "failover": "failover",
	"shifted": "failover", "drained": "failover",

	"config": "confchg", "configuration": "confchg", "push": "confchg",
	"rollout": "confchg", "deploy": "confchg", "deployed": "confchg", "upgrade": "confchg",

	"latency": "lat", "slow": "lat", "rtt": "lat", "delay": "lat", "spikes": "lat", "spike": "lat",

	"corruption": "fcserr", "corrupted": "fcserr", "corrupting": "fcserr",
	"checksum": "fcserr", "fcs": "fcserr", "crc": "fcserr",

	"monitor": "mon", "monitoring": "mon", "pingmesh": "mon", "telemetry": "mon",
	"alert": "mon", "alerts": "mon", "alarm": "mon", "dashboards": "mon",

	"fiber": "physlink", "optics": "physlink", "transceiver": "physlink",
	"cable": "physlink", "carrier": "physlink",
}

// domainWeight boosts canonical domain tokens relative to filler words.
const domainWeight = 3

// domainCanon is the set of canonical domain tokens, precomputed so the
// per-token domain check is a map lookup instead of a scan over the
// synonym table's values.
var domainCanon = func() map[string]bool {
	set := make(map[string]bool, len(domainSynonyms))
	for _, canon := range domainSynonyms {
		set[canon] = true
	}
	return set
}()

// DomainEmbedder is the network-specialized embedder: word tokens with
// synonym folding and domain-term weighting, plus bigrams of the folded
// stream.
type DomainEmbedder struct {
	Dims int
}

// NewDomainEmbedder returns a domain embedder with the given dimension
// (128 if non-positive).
func NewDomainEmbedder(dims int) *DomainEmbedder {
	if dims <= 0 {
		dims = 128
	}
	return &DomainEmbedder{Dims: dims}
}

// Name implements Embedder.
func (e *DomainEmbedder) Name() string { return "domain-network" }

// Dim implements Embedder.
func (e *DomainEmbedder) Dim() int { return e.Dims }

// Tokenize lowercases, splits on non-alphanumerics and folds synonyms;
// exported for tests and for the retrieval-quality experiment's analysis.
func (e *DomainEmbedder) Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
	out := fields[:0]
	for _, f := range fields {
		if canon, ok := domainSynonyms[f]; ok {
			f = canon
		}
		out = append(out, f)
	}
	return out
}

// Embed implements Embedder.
func (e *DomainEmbedder) Embed(text string) []float32 {
	v := make([]float32, e.Dims)
	toks := e.Tokenize(text)
	add := func(tok string, w float32) {
		h := fnv32a(tok)
		idx := int(h % uint32(e.Dims))
		sign := float32(1)
		if (h>>16)&1 == 1 {
			sign = -1
		}
		v[idx] += sign * w
	}
	for i, tok := range toks {
		w := float32(1)
		if domainCanon[tok] {
			w = domainWeight
		}
		add(tok, w)
		if i+1 < len(toks) {
			add(tok+"_"+toks[i+1], 1)
		}
	}
	return normalize(v)
}

// Hit is one search result.
type Hit struct {
	ID    string
	Score float64
}

// Store is a vector database over an embedder.
//
// A store built over fixed texts (an incident history) can be frozen
// and forked: Freeze builds the LSH index once, and each Fork is a
// private view that shares the frozen store's ids, vectors, norms, ID
// index, LSH planes and buckets. A fork copies that data before its
// first Add, so forks never write shared state and may run on parallel
// workers. Its search results equal those of a store built afresh from
// the same texts.
type Store struct {
	emb    Embedder
	ids    []string
	vecs   [][]float32
	norms  []float64 // squared L2 norm per vector, aligned with vecs
	byID   map[string]int
	shared bool // ids, vecs, norms and byID belong to a frozen store

	planes [][]float32 // LSH hyperplanes; built lazily, or by Freeze
	bucket map[uint64][]int
}

// NewStore returns an empty vector store over the embedder.
func NewStore(e Embedder) *Store {
	return &Store{emb: e, byID: make(map[string]int)}
}

// Embedder returns the store's embedder.
func (s *Store) Embedder() Embedder { return s.emb }

// Len reports the number of stored vectors.
func (s *Store) Len() int { return len(s.ids) }

// Add embeds and stores text under id, replacing any existing entry.
func (s *Store) Add(id, text string) {
	v, n := s.embedText(text)
	if s.shared {
		s.ids, s.vecs, s.norms = slices.Clone(s.ids), slices.Clone(s.vecs), slices.Clone(s.norms)
		s.byID = maps.Clone(s.byID)
		s.shared = false
	}
	if i, ok := s.byID[id]; ok {
		s.vecs[i] = v
		s.norms[i] = n
	} else {
		s.byID[id] = len(s.ids)
		s.ids = append(s.ids, id)
		s.vecs = append(s.vecs, v)
		s.norms = append(s.norms, n)
	}
	s.planes, s.bucket = nil, nil // invalidate LSH index
}

// Freeze builds the LSH index and readies s to be forked. After Freeze,
// s is used only through its forks.
func (s *Store) Freeze() *Store {
	s.buildLSH()
	s.shared = true
	return s
}

// Fork returns a private view of the frozen store s, as if the same
// texts had just been added to a new store: same hits.
func (s *Store) Fork() *Store {
	if !s.shared {
		panic("embed: Fork of a store that is not frozen")
	}
	f := *s
	return &f
}

// Search returns the k nearest stored entries to the query text by exact
// cosine similarity, ties broken by ID for determinism.
func (s *Store) Search(query string, k int) []Hit {
	q, qn := s.embedText(query)
	hits := make([]Hit, 0, len(s.ids))
	for i, id := range s.ids {
		hits = append(hits, Hit{ID: id, Score: cosineWithNorms(q, s.vecs[i], qn, s.norms[i])})
	}
	sortHits(hits)
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// LSHPlanes is the number of random hyperplanes per LSH signature.
const LSHPlanes = 14

// buildLSH constructs the hyperplane index deterministically.
func (s *Store) buildLSH() {
	rng := randsrc.New(42)
	s.planes = make([][]float32, LSHPlanes)
	for p := range s.planes {
		pl := make([]float32, s.emb.Dim())
		for i := range pl {
			pl[i] = float32(rng.NormFloat64())
		}
		s.planes[p] = pl
	}
	s.bucket = make(map[uint64][]int)
	for i, v := range s.vecs {
		sig := s.sig(v)
		s.bucket[sig] = append(s.bucket[sig], i)
	}
}

func (s *Store) sig(v []float32) uint64 {
	var sig uint64
	for p, pl := range s.planes {
		var dot float64
		for i := range v {
			dot += float64(v[i]) * float64(pl[i])
		}
		if dot >= 0 {
			sig |= 1 << uint(p)
		}
	}
	return sig
}

// SearchANN returns up to k approximate nearest neighbors using LSH with
// multi-probe (flipping each signature bit once). It trades recall for a
// candidate set much smaller than the store.
func (s *Store) SearchANN(query string, k int) []Hit {
	if s.planes == nil {
		s.buildLSH()
	}
	q, qn := s.embedText(query)
	base := s.sig(q)
	cand := map[int]bool{}
	addBucket := func(sig uint64) {
		for _, i := range s.bucket[sig] {
			cand[i] = true
		}
	}
	addBucket(base)
	for p := 0; p < LSHPlanes; p++ {
		addBucket(base ^ (1 << uint(p)))
	}
	if len(cand) == 0 {
		// No bucket within one probe: fall back to exact search rather
		// than returning nothing (small stores hash sparsely).
		return s.Search(query, k)
	}
	hits := make([]Hit, 0, len(cand))
	for i := range cand {
		hits = append(hits, Hit{ID: s.ids[i], Score: cosineWithNorms(q, s.vecs[i], qn, s.norms[i])})
	}
	sortHits(hits)
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

func sortHits(hits []Hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
}
