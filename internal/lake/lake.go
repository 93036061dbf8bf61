// Package lake is the incident data lake: the append-only, crash-safe
// on-disk store every resolved incident lands in — the postmortem
// summary, the confirmed causal chain, every hypothesis the session
// proposed (verified or not), and the full structured event stream.
// It is the repo's answer to the paper's third principle (*adaptive*
// incident management): incidents used to vanish when the process
// exited; now they accumulate into a queryable corpus the learning
// loop feeds on.
//
// Storage reuses the journal's CRC-framed fsync'd record format
// (journal.FrameFile): one checksummed JSON line per entry, fsync
// before acknowledge, torn tails truncated on open. A lake Append that
// returned nil survives kill -9.
//
// The lake keeps each entry's header fields decoded and its event
// stream as the raw JSON array, whether the entry was read by Open or
// written by Append: the derived views need only the headers, and the
// events are most of every entry's bytes. Get, Entries and ByTag decode
// the events on read and return exactly what an eager decode would;
// the decoded events are not kept, so the lake holds one raw copy of
// each stream.
//
// Derived views are maintained incrementally on ingest and rebuilt
// from the log on open: per-scenario-class TTM statistics, mitigation
// frequency, and a tag index. The promotion gate that closes the
// adaptive loop lives in promote.go: confirmed chains become
// in-context rules and history records, and the policy choice
// (verified-only vs always-ingest) is exactly what experiment E18
// measures.
package lake

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/scenarios"
)

// FileName is the lake log inside the lake directory.
const FileName = "incidents.lake"

// Version is the current entry-format version. Open accepts anything
// at or below it and treats future-version entries as corruption, the
// same forward-compatibility stance the journal takes.
const Version = 1

// Edge is one proposed causal edge: the session hypothesized Cause
// explains Effect, at the model's stated confidence. Proposed edges
// are recorded whether or not the cross-check path later confirmed
// them — that distinction is the whole point of the verified-ingest
// gate.
type Edge struct {
	Cause      string  `json:"cause"`
	Effect     string  `json:"effect"`
	Confidence float64 `json:"confidence,omitempty"`
}

// Action is one executed mitigation step in wire form — structured so
// promotion can rebuild the typed mitigation.Action for the history
// corpus, rendered like mitigation.Action.String for the views.
type Action struct {
	Kind   string `json:"kind"`
	Target string `json:"target,omitempty"`
	Param  string `json:"param,omitempty"`
}

// String matches mitigation.Action's compact rendering.
func (a Action) String() string {
	if a.Param != "" {
		return fmt.Sprintf("%s(%s,%s)", a.Kind, a.Target, a.Param)
	}
	return fmt.Sprintf("%s(%s)", a.Kind, a.Target)
}

// Entry is one incident as stored in the lake.
type Entry struct {
	// V is the entry-format version (0 means pre-versioned, accepted).
	V        int    `json:"v,omitempty"`
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Runner   string `json:"runner,omitempty"`
	Region   string `json:"region,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Severity int    `json:"severity,omitempty"`

	Mitigated  bool    `json:"mitigated,omitempty"`
	Escalated  bool    `json:"escalated,omitempty"`
	TTMMinutes float64 `json:"ttm_minutes,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`

	// Symptoms are the concepts observed at open time; Chain is the
	// deduction chain the session's cross-check path confirmed, in
	// confirmation order (symptom side first, root cause last).
	Symptoms []string `json:"symptoms,omitempty"`
	Chain    []string `json:"chain,omitempty"`
	// Proposed is every hypothesis edge the session floated, confirmed
	// or not, reconstructed from the event stream.
	Proposed []Edge `json:"proposed,omitempty"`
	// Applied is the executed mitigation plan.
	Applied []Action `json:"applied,omitempty"`
	Tags    []string `json:"tags,omitempty"`

	// Events is the session's structured event stream.
	Events []obs.Event `json:"events,omitempty"`
}

// NewEntry builds the lake record for one completed session: scenario
// facts from the instance, outcome facts from the uniform result
// (Chain rides in res.Deductions), and the proposed-edge set
// reconstructed from the event stream. The entry's Events aliases
// events: Append encodes it, and the lake never keeps the slice.
func NewEntry(id, runner string, in *scenarios.Instance, res harness.Result, seed int64, events []obs.Event) Entry {
	e := Entry{
		ID:         id,
		Scenario:   in.Scenario.Name(),
		Runner:     runner,
		Seed:       seed,
		Severity:   in.Incident.Severity,
		Mitigated:  res.Mitigated,
		Escalated:  res.Escalated,
		TTMMinutes: res.TTM.Minutes(),
		Rounds:     res.Rounds,
		Symptoms:   append([]string(nil), in.Incident.Symptoms...),
		Chain:      append([]string(nil), res.Deductions...),
		Proposed:   ProposedEdges(in.Incident.Symptoms, events),
		Events:     events,
	}
	for _, a := range res.Applied.Actions {
		e.Applied = append(e.Applied, Action{Kind: string(a.Kind), Target: a.Target, Param: a.Param})
	}
	e.Tags = append(e.Tags, e.Scenario, fmt.Sprintf("sev%d", e.Severity))
	switch {
	case e.Mitigated:
		e.Tags = append(e.Tags, "mitigated")
	case e.Escalated:
		e.Tags = append(e.Tags, "escalated")
	default:
		e.Tags = append(e.Tags, "unresolved")
	}
	if len(e.Chain) > 0 {
		e.Tags = append(e.Tags, "root:"+e.Chain[len(e.Chain)-1])
	}
	return e
}

// ProposedEdges reconstructs every hypothesis edge a session proposed
// from its event stream. The frontier — the effect a new hypothesis
// would explain — starts at the first symptom and advances to each
// hypothesis the tester supported, mirroring how the session itself
// extends its deduction chain. Duplicate (cause, effect) pairs keep
// their highest confidence.
func ProposedEdges(symptoms []string, events []obs.Event) []Edge {
	frontier := ""
	if len(symptoms) > 0 {
		frontier = symptoms[0]
	}
	seen := map[[2]string]int{}
	var out []Edge
	for _, e := range events {
		switch e.Type {
		case obs.EvHypothesis:
			if e.Hypothesis == "" || frontier == "" {
				continue
			}
			key := [2]string{e.Hypothesis, frontier}
			if i, ok := seen[key]; ok {
				if e.Confidence > out[i].Confidence {
					out[i].Confidence = e.Confidence
				}
				continue
			}
			seen[key] = len(out)
			out = append(out, Edge{Cause: e.Hypothesis, Effect: frontier, Confidence: e.Confidence})
		case obs.EvHypothesisTested:
			if e.Verdict == "supported" && e.Hypothesis != "" {
				frontier = e.Hypothesis
			}
		}
	}
	return out
}

// ClassStats is the per-scenario-class TTM view.
type ClassStats struct {
	Scenario       string  `json:"scenario"`
	Count          int     `json:"count"`
	Mitigated      int     `json:"mitigated"`
	Escalated      int     `json:"escalated"`
	MeanTTMMinutes float64 `json:"mean_ttm_minutes"`
	MinTTMMinutes  float64 `json:"min_ttm_minutes"`
	MaxTTMMinutes  float64 `json:"max_ttm_minutes"`
}

// Stats is the lake's aggregate view.
type Stats struct {
	Entries   int          `json:"entries"`
	Mitigated int          `json:"mitigated"`
	Escalated int          `json:"escalated"`
	Classes   []ClassStats `json:"classes"`
}

// MitigationCount is one row of the mitigation-frequency view.
type MitigationCount struct {
	Action string `json:"action"`
	Count  int    `json:"count"`
}

// TagCount is one row of the tag-index summary.
type TagCount struct {
	Tag   string `json:"tag"`
	Count int    `json:"count"`
}

// RecoverResult reports what Open replayed.
type RecoverResult struct {
	// Entries is the number of distinct incidents recovered.
	Entries int
	// Dropped counts torn/corrupt trailing lines discarded by the scan.
	Dropped int
	// Bytes is the size of the clean prefix.
	Bytes int64
}

// classAgg is the incrementally maintained per-class accumulator.
type classAgg struct {
	count, mitigated, escalated int
	ttmSum, ttmMin, ttmMax      float64
}

func (a *classAgg) add(e Entry) {
	if a.count == 0 || e.TTMMinutes < a.ttmMin {
		a.ttmMin = e.TTMMinutes
	}
	if a.count == 0 || e.TTMMinutes > a.ttmMax {
		a.ttmMax = e.TTMMinutes
	}
	a.count++
	a.ttmSum += e.TTMMinutes
	if e.Mitigated {
		a.mitigated++
	}
	if e.Escalated {
		a.escalated++
	}
}

// stored is one in-memory entry. It is also the shape Open decodes a
// payload into: the embedded Entry takes every header field through its
// own tags, and the shallower Events field shadows Entry.Events, so the
// event stream stays raw. Entry.Events is always nil.
type stored struct {
	Entry
	Events json.RawMessage `json:"events,omitempty"`
}

// entry returns the stored entry with its event stream decoded. The
// raw bytes passed objectArray at Open, so only an ill-typed field
// inside an event object can fail here; such a stream reads back as no
// events rather than a partial one.
func (s stored) entry() Entry {
	e := s.Entry
	if s.Events != nil && json.Unmarshal(s.Events, &e.Events) != nil {
		e.Events = nil
	}
	return e
}

// objectArray reports whether raw, a syntactically valid JSON value or
// nothing, is absent, null, or an array whose elements are each an
// object or null: every shape an eager decode into []obs.Event
// accepts, short of the field types inside each object. Open checks it
// so a CRC-clean frame with a malformed event stream still truncates
// the log there. Ill-typed fields inside event objects are the one
// case Open no longer rejects; no writer produces them, since Append
// encodes typed obs.Events.
func objectArray(raw []byte) bool {
	if len(raw) == 0 || string(raw) == "null" {
		return true
	}
	if raw[0] != '[' {
		return false
	}
	depth, elem := 0, false // elem: the next byte at depth 1 starts an element
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if elem {
			switch c {
			case ' ', '\t', '\n', '\r':
				continue
			case '{', 'n', ']':
				elem = false
			default:
				return false
			}
		}
		switch c {
		case '"':
			for i++; raw[i] != '"'; i++ {
				if raw[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
			elem = depth == 1
		case ']', '}':
			depth--
		case ',':
			elem = depth == 1
		}
	}
	return true
}

// Lake is the open data lake: the append handle plus the in-memory
// entry set and derived views. Safe for concurrent use.
type Lake struct {
	mu      sync.Mutex
	ff      *journal.FrameFile
	entries []stored
	byID    map[string]int

	classes     map[string]*classAgg
	mitigations map[string]int
	tagIndex    map[string][]string // tag -> entry IDs, append order
}

// Open opens (creating if necessary) the lake in dir, replays the
// existing entries, truncates any torn tail back to the last clean
// record boundary, rebuilds the derived views, and returns the append
// handle. Duplicate IDs in the log (a crash between the lake append
// and the gateway journal append, then a client retry) resolve
// last-write-wins.
func Open(dir string) (*Lake, RecoverResult, error) {
	l := &Lake{
		byID:        map[string]int{},
		classes:     map[string]*classAgg{},
		mitigations: map[string]int{},
		tagIndex:    map[string][]string{},
	}
	ff, good, dropped, err := OpenFrameLog(dir, func(payload []byte) bool {
		var s stored
		if err := json.Unmarshal(payload, &s); err != nil {
			return false
		}
		if s.V > Version || s.ID == "" || !objectArray(s.Events) {
			return false
		}
		l.absorb(s)
		return true
	})
	if err != nil {
		return nil, RecoverResult{}, fmt.Errorf("lake: %w", err)
	}
	l.ff = ff
	return l, RecoverResult{Entries: len(l.entries), Dropped: dropped, Bytes: good}, nil
}

// OpenFrameLog opens the raw frame log under dir, feeding each clean
// payload to accept — exposed so tests and tooling can scan a lake
// directory without constructing the full view state.
func OpenFrameLog(dir string, accept func(payload []byte) bool) (*journal.FrameFile, int64, int, error) {
	return journal.OpenFrameFile(dir, FileName, accept)
}

// absorb inserts e into the in-memory set and views. Caller holds no
// lock during Open; Append holds l.mu.
func (l *Lake) absorb(e stored) {
	if i, ok := l.byID[e.ID]; ok {
		// Last-write-wins replace: views are rebuilt from scratch since
		// the displaced entry's contributions must be withdrawn.
		l.entries[i] = e
		l.rebuild()
		return
	}
	l.byID[e.ID] = len(l.entries)
	l.entries = append(l.entries, e)
	l.index(e)
}

// index adds one entry's view contributions.
func (l *Lake) index(e stored) {
	agg := l.classes[e.Scenario]
	if agg == nil {
		agg = &classAgg{}
		l.classes[e.Scenario] = agg
	}
	agg.add(e.Entry)
	for _, a := range e.Applied {
		l.mitigations[a.String()]++
	}
	for _, tag := range e.Tags {
		l.tagIndex[tag] = append(l.tagIndex[tag], e.ID)
	}
}

// rebuild recomputes every derived view from the entry set.
func (l *Lake) rebuild() {
	l.classes = map[string]*classAgg{}
	l.mitigations = map[string]int{}
	l.tagIndex = map[string][]string{}
	for _, e := range l.entries {
		l.index(e)
	}
}

// Append encodes, writes, and fsyncs one entry, then folds it into the
// views, reporting the framed bytes written. When Append returns nil
// the entry is durable — the gateway calls it before acknowledging any
// 2xx.
func (l *Lake) Append(e Entry) (int, error) {
	events, err := EncodeEvents(e.Events)
	if err != nil {
		return 0, err
	}
	return l.AppendEncoded(e, events)
}

// EncodeEvents is the JSON encoding of an event stream, the form the
// lake keeps: nil for an empty stream.
func EncodeEvents(events []obs.Event) (json.RawMessage, error) {
	if len(events) == 0 {
		return nil, nil
	}
	raw, err := json.Marshal(events)
	if err != nil {
		return nil, fmt.Errorf("lake: encode events: %w", err)
	}
	return raw, nil
}

// AppendEncoded is Append for an entry whose event stream was already
// encoded by EncodeEvents; e.Events is ignored. The lake keeps events
// as the entry's one copy of its stream, so the caller must not modify
// it afterwards. The frame is byte-identical to Append's for the same
// entry: Events is Entry's last field, so its encoding is the header's
// encoding with the stream spliced in before the closing brace.
func (l *Lake) AppendEncoded(e Entry, events json.RawMessage) (int, error) {
	if e.ID == "" {
		return 0, fmt.Errorf("lake: entry with empty id")
	}
	if e.V == 0 {
		e.V = Version
	}
	e.Events = nil
	payload, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("lake: encode: %w", err)
	}
	if len(events) > 0 {
		payload = slices.Concat(payload[:len(payload)-1], []byte(`,"events":`), events, []byte("}"))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.ff.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("lake: %w", err)
	}
	l.absorb(stored{Entry: e, Events: events})
	return n, nil
}

// Len reports the number of distinct incidents in the lake.
func (l *Lake) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Get returns the entry with the given ID.
func (l *Lake) Get(id string) (Entry, bool) {
	l.mu.Lock()
	i, ok := l.byID[id]
	var s stored
	if ok {
		s = l.entries[i]
	}
	l.mu.Unlock()
	return s.entry(), ok
}

// Entries returns every entry in append order.
func (l *Lake) Entries() []Entry {
	l.mu.Lock()
	all := append([]stored(nil), l.entries...)
	l.mu.Unlock()
	return decodeAll(all)
}

// decodeAll decodes each stored entry's events, outside the lock: the
// raw bytes are never written after Open. A nil input stays nil.
func decodeAll(ss []stored) []Entry {
	if ss == nil {
		return nil
	}
	out := make([]Entry, len(ss))
	for i, s := range ss {
		out[i] = s.entry()
	}
	return out
}

// Stats returns the aggregate view, classes sorted by scenario name.
func (l *Lake) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := Stats{Entries: len(l.entries)}
	for name, agg := range l.classes {
		out.Mitigated += agg.mitigated
		out.Escalated += agg.escalated
		out.Classes = append(out.Classes, ClassStats{
			Scenario:       name,
			Count:          agg.count,
			Mitigated:      agg.mitigated,
			Escalated:      agg.escalated,
			MeanTTMMinutes: agg.ttmSum / float64(agg.count),
			MinTTMMinutes:  agg.ttmMin,
			MaxTTMMinutes:  agg.ttmMax,
		})
	}
	sort.Slice(out.Classes, func(i, j int) bool { return out.Classes[i].Scenario < out.Classes[j].Scenario })
	return out
}

// Mitigations returns the mitigation-frequency view, most frequent
// first (ties broken by action string).
func (l *Lake) Mitigations() []MitigationCount {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]MitigationCount, 0, len(l.mitigations))
	for a, n := range l.mitigations {
		out = append(out, MitigationCount{Action: a, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Action < out[j].Action
	})
	return out
}

// Tags returns the tag-index summary, sorted by tag.
func (l *Lake) Tags() []TagCount {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TagCount, 0, len(l.tagIndex))
	for tag, ids := range l.tagIndex {
		out = append(out, TagCount{Tag: tag, Count: len(ids)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// ByTag returns the entries carrying the tag, in append order.
func (l *Lake) ByTag(tag string) []Entry {
	l.mu.Lock()
	ids := l.tagIndex[tag]
	tagged := make([]stored, 0, len(ids))
	for _, id := range ids {
		tagged = append(tagged, l.entries[l.byID[id]])
	}
	l.mu.Unlock()
	return decodeAll(tagged)
}

// Path returns the lake log's file path.
func (l *Lake) Path() string { return l.ff.Path() }

// Close closes the append handle. Every successfully Append'ed entry
// is already fsync'd.
func (l *Lake) Close() error { return l.ff.Close() }
