package journal

import (
	"encoding/json"
	"fmt"
)

// Encode renders one record as its checksummed journal line, the bytes
// Journal.Append writes for it: tests use it to craft journal files.
func Encode(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	return EncodeFrame(payload), nil
}
