package kb

import (
	"sort"
	"sync"

	"repro/internal/embed"
	"repro/internal/mitigation"
)

// IncidentRecord is one resolved incident as stored in the provider's
// incident database: the text operators wrote, the symptoms and root
// cause expressed in the concept vocabulary, the mitigation applied, and
// the original time-to-mitigation. One-shot predictors train on these;
// the replay harness (§3) replays them.
type IncidentRecord struct {
	ID         string
	Title      string
	Summary    string
	Symptoms   []string // concept IDs observed at open time
	RootCause  string   // concept ID operators settled on
	Mitigation []mitigation.Action
	TTMMinutes float64
	Severity   int // 0..3 (info..critical)
	Tags       []string
}

// Text returns the searchable text of the record (title + summary), the
// string embedding models index.
func (r IncidentRecord) Text() string { return r.Title + ". " + r.Summary }

// History is the incident database.
//
// It also owns the vector indexes derived from its records (Index).
// Each is built once per history version and embedder and forked per
// session, so a session does not re-embed the history. The indexes live
// and die with the History; Add drops them.
type History struct {
	records []IncidentRecord
	byID    map[string]int

	mu      sync.Mutex
	version uint64 // mutation count; an index is valid for one version
	indexes map[indexKey]*indexSlot
}

// indexKey names one derived index. The embedder's Name and Dim stand
// for the embedder, the purity contract of the embedding memo; the
// embed-cache setting decides the store's memo accounting.
type indexKey struct {
	version  uint64
	kind     string
	embedder string
	dim      int
	cached   bool
}

type indexSlot struct {
	once  sync.Once
	store *embed.Store
}

// NewHistory returns an empty incident database.
func NewHistory() *History {
	return &History{byID: make(map[string]int)}
}

// Add stores a record, replacing any record with the same ID. It
// advances the history version and drops every derived index. Like
// every mutation, it must not run concurrently with readers.
func (h *History) Add(r IncidentRecord) {
	h.mu.Lock()
	h.version++
	h.indexes = nil
	h.mu.Unlock()
	if i, ok := h.byID[r.ID]; ok {
		h.records[i] = r
		return
	}
	h.byID[r.ID] = len(h.records)
	h.records = append(h.records, r)
}

// Index returns a private fork of the vector store that holds every
// record, in ID order, under its ID with text(record) embedded by e.
// kind names the text function: callers that index different texts use
// different kinds. The frozen store is built on the first call for each
// (version, kind, embedder, embed-cache setting); Index is safe for
// concurrent use.
func (h *History) Index(kind string, e embed.Embedder, text func(IncidentRecord) string) *embed.Store {
	h.mu.Lock()
	key := indexKey{h.version, kind, e.Name(), e.Dim(), embed.EmbedCacheEnabled()}
	slot := h.indexes[key]
	if slot == nil {
		if h.indexes == nil {
			h.indexes = make(map[indexKey]*indexSlot)
		}
		slot = &indexSlot{}
		h.indexes[key] = slot
	}
	h.mu.Unlock()
	slot.once.Do(func() {
		store := embed.NewStore(e)
		for _, r := range h.All() {
			store.Add(r.ID, text(r))
		}
		slot.store = store.Freeze()
	})
	return slot.store.Fork()
}

// Len reports the number of records.
func (h *History) Len() int { return len(h.records) }

// All returns every record sorted by ID.
func (h *History) All() []IncidentRecord {
	out := append([]IncidentRecord(nil), h.records...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the record with the given ID.
func (h *History) ByID(id string) (IncidentRecord, bool) {
	i, ok := h.byID[id]
	if !ok {
		return IncidentRecord{}, false
	}
	return h.records[i], true
}

// WithMitigation returns records whose applied mitigation satisfies every
// requirement in need — the conditional TTM estimator (§3) conditions on
// this set.
func (h *History) WithMitigation(need []mitigation.Action) []IncidentRecord {
	var out []IncidentRecord
	for _, r := range h.All() {
		if (mitigation.Plan{Actions: r.Mitigation}).Satisfies(need) {
			out = append(out, r)
		}
	}
	return out
}
