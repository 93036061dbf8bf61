package netsim

import (
	"slices"
	"time"
)

// ChangeKind classifies entries in the change-management log.
type ChangeKind string

// Change kinds. The adaptive helper's edge comes from correlating recent
// changes with incident symptoms, so the log distinguishes rollouts from
// routine maintenance.
const (
	ChangeConfigPush      ChangeKind = "config-push"
	ChangeProtocolRollout ChangeKind = "protocol-rollout"
	ChangeOSUpgrade       ChangeKind = "os-upgrade"
	ChangeMaintenance     ChangeKind = "maintenance"
	ChangeIsolation       ChangeKind = "isolation"
	ChangeMitigation      ChangeKind = "mitigation"
)

// ChangeRecord is one entry in the change-management log.
type ChangeRecord struct {
	ID          string
	At          time.Duration // simulated time of the change
	Team        string
	Kind        ChangeKind
	Description string
	Details     map[string]string
}

// ChangeLog is the provider's change-management database. Operators (and
// the helper, via the recent-changes tool) consult it to correlate
// incidents with deployments — the paper's adaptivity principle rests on
// the observation that "we know the changes, but are unaware what impact
// they may cause until they happen."
type ChangeLog struct {
	records []ChangeRecord
	nextID  int
}

// NewChangeLog returns an empty log.
func NewChangeLog() *ChangeLog { return &ChangeLog{nextID: 1} }

// Add appends a record, assigning an ID if unset, and returns the stored
// record.
func (c *ChangeLog) Add(r ChangeRecord) ChangeRecord {
	if r.ID == "" {
		r.ID = changeID(c.nextID)
		c.nextID++
	}
	c.records = append(c.records, r)
	return r
}

func changeID(n int) string {
	// CHG-000001 style, fixed width for stable sorting in reports.
	const digits = 6
	buf := []byte("CHG-000000")
	for i := len(buf) - 1; n > 0 && i >= len(buf)-digits; i-- {
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf)
}

// Clone returns a copy of the log that preserves the ID counter, so
// records added to a what-if clone never collide with IDs the parent
// assigns later.
func (c *ChangeLog) Clone() *ChangeLog {
	return &ChangeLog{records: append([]ChangeRecord(nil), c.records...), nextID: c.nextID}
}

// All returns every record ordered by time then ID.
func (c *ChangeLog) All() []ChangeRecord {
	out := append([]ChangeRecord(nil), c.records...)
	slices.SortFunc(out, func(a, b ChangeRecord) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	return out
}

// Since returns records at or after t, ordered by time then ID.
func (c *ChangeLog) Since(t time.Duration) []ChangeRecord {
	var out []ChangeRecord
	for _, r := range c.All() {
		if r.At >= t {
			out = append(out, r)
		}
	}
	return out
}

// Len reports the number of records.
func (c *ChangeLog) Len() int { return len(c.records) }
