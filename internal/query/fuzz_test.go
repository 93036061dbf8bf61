package query

import (
	"testing"

	"repro/internal/scenarios"
)

// FuzzParse: the DSL parser must never panic, and anything it accepts
// that also verifies must execute without error.
func FuzzParse(f *testing.F) {
	f.Add("links where util > 0.9 order by util desc limit 5")
	f.Add("devices where healthy = false")
	f.Add("events where message contains fastpath limit 3")
	f.Add("services order by loss asc")
	f.Add("links where")
	f.Add("limit limit limit")
	f.Add("")
	w := scenarios.StandardWorld()
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		if err := Verify(q); err != nil {
			return
		}
		if _, err := Execute(q, w); err != nil {
			t.Fatalf("verified query failed to execute: %v", err)
		}
		// Print/parse stability for accepted queries.
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("rendered query %q does not re-parse: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Fatalf("unstable rendering: %q -> %q", q.String(), q2.String())
		}
	})
}
