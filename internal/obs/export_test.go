package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Test-only readers: the decoder oracle of the event-log round trip and
// accessors for single registry series.

// ReadEventLog decodes a JSON-lines event log written by WriteEventLog.
// Blank lines are skipped; a malformed line fails with its line number.
func ReadEventLog(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("obs: event log line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CounterValue reads one counter series (0 when absent).
func (r *Registry) CounterValue(name string, labels Labels) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name][labels.render()]
}

// HistogramCount reads one histogram series' sample count.
func (r *Registry) HistogramCount(name string, labels Labels) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name][labels.render()]
	if h == nil {
		return 0
	}
	return h.count
}
