package gateway

// GET /v1/incidents: the cursor-paginated list view over the gateway's
// canonical records. Records sort by (opened_at_minutes, id) ascending
// — the same total order the fleet scheduler admits arrivals in — so a
// page walk visits incidents in fleet admission order and two walks
// over an unchanged store return byte-identical pages.
//
// The cursor is an opaque token (base64url of "minutes|id") naming the
// last record already returned; the next page resumes strictly after
// that position. Because the sort key is the immutable admission
// identity — a record's opened_at_minutes and id never change — a
// cursor stays valid under concurrent inserts: a new arrival sorts
// entirely before or after the cursor position, it cannot move an
// already-returned record nor be skipped within an unvisited suffix.
//
// Filters (region=, status=, severity=) conjoin and apply before
// pagination, so limit counts matching records. An unknown region or
// status value that is syntactically valid simply matches nothing for
// region, while status and severity are enumerated and validated
// (422) — typos in an enum are caller bugs, not empty result sets.

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// List pagination bounds: limit defaults to defaultPageLimit and may
// not exceed maxPageLimit.
const (
	defaultPageLimit = 50
	maxPageLimit     = 200
)

// ListPage is GET /v1/incidents' response: one page of records in
// (opened_at_minutes, id) order, and the resume cursor when the walk
// is not finished.
type ListPage struct {
	Incidents []Record `json:"incidents"`
	// NextCursor resumes the walk after the last record above. Absent
	// on the final page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// encodeCursor renders a record's position in the list order as an
// opaque resume token. FormatFloat 'g' with -1 precision round-trips
// the float64 exactly, so decode(encode(r)) is the identity.
func encodeCursor(r *Record) string {
	raw := strconv.FormatFloat(r.OpenedAtMinutes, 'g', -1, 64) + "|" + r.ID
	return base64.RawURLEncoding.EncodeToString([]byte(raw))
}

// decodeCursor parses a resume token back into its (minutes, id) sort
// position.
func decodeCursor(tok string) (minutes float64, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, "", fmt.Errorf("not a cursor token")
	}
	head, id, ok := strings.Cut(string(raw), "|")
	if !ok {
		return 0, "", fmt.Errorf("not a cursor token")
	}
	minutes, err = strconv.ParseFloat(head, 64)
	if err != nil {
		return 0, "", fmt.Errorf("not a cursor token")
	}
	return minutes, id, nil
}

// listBefore reports whether record position (am, aid) sorts strictly
// before (bm, bid) in the list order.
func listBefore(am float64, aid string, bm float64, bid string) bool {
	if am != bm {
		return am < bm
	}
	return aid < bid
}

// parseSeverityParam accepts the wire forms the JSON codec does:
// "sevN" or a bare integer 0..MaxSeverity.
func parseSeverityParam(v string) (Severity, error) {
	var sev Severity
	if err := sev.UnmarshalJSON([]byte(strconv.Quote(v))); err == nil {
		return sev, nil
	}
	if err := sev.UnmarshalJSON([]byte(v)); err != nil {
		return 0, err
	}
	return sev, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, _ string) {
	s.stepWall()
	q := r.URL.Query()

	limit := defaultPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxPageLimit {
			writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "limit",
				"limit must be an integer in [1, %d]", maxPageLimit)
			return
		}
		limit = n
	}

	afterSet := false
	var afterMin float64
	var afterID string
	if tok := q.Get("cursor"); tok != "" {
		m, id, err := decodeCursor(tok)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "cursor",
				"invalid cursor %q: %v", tok, err)
			return
		}
		afterSet, afterMin, afterID = true, m, id
	}

	region := q.Get("region")
	status := q.Get("status")
	if status != "" && !ValidStatus(status) {
		writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "status",
			"unknown status %q: want one of %s", status, strings.Join(Statuses, "|"))
		return
	}
	var sevFilter *Severity
	if v := q.Get("severity"); v != "" {
		sev, err := parseSeverityParam(v)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, CodeValidation, "severity",
				"unknown severity %q: want sev0..sev%d", v, MaxSeverity)
			return
		}
		sevFilter = &sev
	}

	// Collect the matching records under the lock, then sort and cut
	// the page. Reservations (nil placeholders for in-flight creates)
	// are invisible to the list — they have no acknowledged state yet.
	s.mu.Lock()
	matches := make([]*Record, 0, len(s.records))
	for _, rec := range s.records {
		if rec == nil {
			continue
		}
		if region != "" && rec.Region != region {
			continue
		}
		if status != "" && rec.Status != status {
			continue
		}
		if sevFilter != nil && rec.Severity != *sevFilter {
			continue
		}
		matches = append(matches, rec)
	}
	s.mu.Unlock()
	sort.Slice(matches, func(i, j int) bool {
		return listBefore(matches[i].OpenedAtMinutes, matches[i].ID,
			matches[j].OpenedAtMinutes, matches[j].ID)
	})
	if afterSet {
		// Drop everything at or before the cursor position.
		cut := sort.Search(len(matches), func(i int) bool {
			return listBefore(afterMin, afterID, matches[i].OpenedAtMinutes, matches[i].ID)
		})
		matches = matches[cut:]
	}

	more := len(matches) > limit
	matches = matches[:min(limit, len(matches))]

	// Copy only the page's records, under the lock: PATCH mutates them
	// in place. The sort above reads ID and OpenedAtMinutes, which
	// never change after create, so it runs unlocked.
	page := ListPage{Incidents: make([]Record, len(matches))}
	s.mu.Lock()
	for i, rec := range matches {
		page.Incidents[i] = rec.snapshot()
	}
	s.mu.Unlock()
	for i := range page.Incidents {
		page.Incidents[i] = s.view(page.Incidents[i])
	}
	if more {
		page.NextCursor = encodeCursor(&page.Incidents[len(page.Incidents)-1])
	}
	writeJSON(w, http.StatusOK, page)
}
