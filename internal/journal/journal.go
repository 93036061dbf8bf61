// Package journal is the gateway's write-ahead incident log: an
// append-only, fsync'd, checksummed record of every externally visible
// state transition (accepted / status-patched / resolved / shed). The
// gateway appends the record — and waits for the fsync — before any
// 2xx leaves the socket, which turns an HTTP acknowledgement into a
// durable promise: after a crash, replaying the journal reconstructs
// every acknowledged incident exactly (internal/gateway's Recover
// re-offers the unresolved ones into the live scheduler, and session
// seeds derive from (base, id), so the replayed sessions are
// byte-identical to the pre-crash ones).
//
// Wire format: one record per line,
//
//	%08x SP json-payload LF
//
// where the hex prefix is the IEEE CRC32 of the payload. JSON escapes
// control characters, so the payload never contains a raw newline and
// line framing is unambiguous. A torn write — the tail a SIGKILL or
// power loss leaves behind — shows up as a final line that is missing
// its newline or fails its checksum; Decode drops that tail (and
// anything after a corrupt line, since appends are strictly ordered)
// and Open truncates the file back to the last clean record boundary so
// new appends never graft onto a partial line. Recovery therefore
// never panics and never silently accepts corrupt state: a record is
// either checksum-clean or discarded, and only un-acknowledged suffix
// records can be lost.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// FileName is the journal file inside the journal directory.
const FileName = "incidents.wal"

// Kind enumerates the journaled gateway state transitions.
type Kind string

const (
	// KindAccepted: the gateway admitted a new incident (201).
	KindAccepted Kind = "accepted"
	// KindPatched: a caller updated status/severity/notes (200).
	KindPatched Kind = "patched"
	// KindResolved: a caller patched the terminal "resolved" status.
	KindResolved Kind = "resolved"
	// KindShed: fleet admission control shed the arrival (informational
	// — recovery re-derives shed outcomes deterministically).
	KindShed Kind = "shed"
)

// Version is the current record-format version. Version history:
//
//	0 (implicit, field omitted): the pre-region format — every incident
//	  belongs to the single default fleet region.
//	2: adds Region (version 2 matches the PR that introduced sharding;
//	  1 was never emitted).
//
// Append stamps the current version on every record; Decode accepts
// anything at or below it (older records simply lack the newer fields
// and replay with their documented defaults) and rejects records from
// the future, where unknown semantics could silently corrupt recovery.
const Version = 2

// Record is one gateway state transition. Accepted records carry the
// full normalized incident (enough to rebuild the gateway record and
// re-run the session from its derived seed); patch records carry only
// the delta.
type Record struct {
	// V is the record-format version (see Version; 0 means the
	// pre-region format).
	V    int    `json:"v,omitempty"`
	Kind Kind   `json:"kind"`
	ID   string `json:"id"`
	// AtMinutes is the simulated-clock time of the transition.
	AtMinutes float64 `json:"at_minutes"`

	// Accepted-record fields (post-normalization, so recovery rebuilds
	// the record without re-deriving defaults).
	Scenario        string  `json:"scenario,omitempty"`
	Severity        *int    `json:"severity,omitempty"`
	Title           string  `json:"title,omitempty"`
	Summary         string  `json:"summary,omitempty"`
	Service         string  `json:"service,omitempty"`
	ReportedBy      string  `json:"reported_by,omitempty"`
	OpenedAtMinutes float64 `json:"opened_at_minutes,omitempty"`
	// Region homes the incident in a fleet region (accepted records,
	// V >= 2; empty means the default region — which is how every V0
	// record replays into the sharded scheduler).
	Region string `json:"region,omitempty"`

	// Patch-record fields. Note is stored with the caller prefix
	// already applied, exactly as it lands in the record's Notes.
	Status string `json:"status,omitempty"`
	Note   string `json:"note,omitempty"`
}

// Decode scans data for journal records. It returns every record up to
// the first torn or corrupt point, the byte offset of the last clean
// record boundary, and how many trailing lines (or partial lines) were
// discarded. It never fails: corruption truncates, it does not error —
// appends are strictly ordered, so nothing after a bad line can have
// been acknowledged on top of durable state.
func Decode(data []byte) (recs []Record, good int, dropped int) {
	good, dropped = ScanFrames(data, func(payload []byte) bool {
		r, ok := decodePayload(payload)
		if !ok {
			return false
		}
		recs = append(recs, r)
		return true
	})
	return recs, good, dropped
}

// decodePayload parses one checksum-clean frame payload as a Record.
func decodePayload(payload []byte) (Record, bool) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, false
	}
	if r.V > Version {
		// A future-format record: its semantics are unknown, so treat it
		// (and everything after it) like corruption — truncate rather
		// than guess.
		return Record{}, false
	}
	return r, true
}

// ReplayResult is what a journal scan recovered.
type ReplayResult struct {
	// Records are the checksum-clean records, in append order.
	Records []Record
	// Dropped counts torn/corrupt trailing lines discarded by the scan.
	Dropped int
}

// MaxAtMinutes returns the latest transition time in the replay — the
// simulated-clock high-water mark a recovering gateway resumes from.
func (rr ReplayResult) MaxAtMinutes() float64 {
	max := 0.0
	for _, r := range rr.Records {
		if r.AtMinutes > max {
			max = r.AtMinutes
		}
		if r.OpenedAtMinutes > max {
			max = r.OpenedAtMinutes
		}
	}
	return max
}

// Journal is the append handle. Safe for concurrent use.
type Journal struct {
	ff *FrameFile
}

// Open opens (creating if necessary) the journal in dir, replays the
// existing records, truncates any torn tail back to the last clean
// record boundary, and returns the append handle positioned there.
func Open(dir string) (*Journal, ReplayResult, error) {
	var recs []Record
	ff, _, dropped, err := OpenFrameFile(dir, FileName, func(payload []byte) bool {
		r, ok := decodePayload(payload)
		if !ok {
			return false
		}
		recs = append(recs, r)
		return true
	})
	if err != nil {
		return nil, ReplayResult{}, fmt.Errorf("journal: %w", err)
	}
	return &Journal{ff: ff},
		ReplayResult{Records: recs, Dropped: dropped}, nil
}

// Replay scans the journal in dir without opening it for append. A
// missing journal is an empty replay, not an error.
func Replay(dir string) (ReplayResult, error) {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if errors.Is(err, fs.ErrNotExist) {
		return ReplayResult{}, nil
	}
	if err != nil {
		return ReplayResult{}, fmt.Errorf("journal: %w", err)
	}
	recs, _, dropped := Decode(data)
	return ReplayResult{Records: recs, Dropped: dropped}, nil
}

// Append encodes, writes, and fsyncs one record, returning the bytes
// written. When Append returns nil the record is durable — the gateway
// calls it before acknowledging any 2xx.
func (j *Journal) Append(r Record) (int, error) {
	if r.V == 0 {
		r.V = Version
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return 0, fmt.Errorf("journal: encode: %w", err)
	}
	n, err := j.ff.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return n, nil
}

// Stats reports records and bytes appended through this handle.
func (j *Journal) Stats() (records int, bytes int64) {
	return j.ff.Stats()
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.ff.Path() }

// Close closes the append handle. Every successfully Append'ed record
// is already fsync'd, so Close-vs-SIGKILL makes no durability
// difference — which is exactly what the chaos harness exploits.
func (j *Journal) Close() error {
	return j.ff.Close()
}
