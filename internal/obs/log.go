package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteEventLog encodes events as JSON lines (one event per line), the
// -trace-out format. Encoding is deterministic: struct fields serialize
// in declaration order and zero values are omitted.
func WriteEventLog(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}
