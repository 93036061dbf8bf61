package gateway

import (
	"errors"
	"testing"
	"time"
)

// TestDecodeCreate pins the create codec's accept/reject boundary: one
// row per rule, with the field the FieldError must blame.
func TestDecodeCreate(t *testing.T) {
	t.Parallel()
	longID := make([]byte, maxIDLen+1)
	for i := range longID {
		longID[i] = 'a'
	}
	cases := []struct {
		name  string
		body  string
		field string // "" = accepted, "!" = non-field (400-class) error
	}{
		{"minimal", `{"scenario":"gray-link"}`, ""},
		{"full", `{"id":"inc-1","scenario":"device-failure","severity":"sev3","title":"t","summary":"s","service":"svc","opened_at_minutes":90}`, ""},
		{"severity as int", `{"scenario":"gray-link","severity":2}`, ""},
		{"missing scenario", `{}`, "scenario"},
		{"unknown scenario", `{"scenario":"nope"}`, "scenario"},
		{"bad severity enum", `{"scenario":"gray-link","severity":"sev4"}`, "severity"},
		{"bad severity word", `{"scenario":"gray-link","severity":"high"}`, "severity"},
		{"bad id charset", `{"id":"a b","scenario":"gray-link"}`, "id"},
		{"id too long", `{"id":"` + string(longID) + `","scenario":"gray-link"}`, "id"},
		{"negative time", `{"scenario":"gray-link","opened_at_minutes":-5}`, "opened_at_minutes"},
		{"overflow time", `{"scenario":"gray-link","opened_at_minutes":1e30}`, "opened_at_minutes"},
		{"unknown field", `{"scenario":"gray-link","color":"red"}`, "!"},
		{"trailing data", `{"scenario":"gray-link"} {}`, "!"},
		{"malformed", `{"scenario":`, "!"},
		{"wrong shape", `["gray-link"]`, "!"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCreate([]byte(tc.body))
			checkFieldErr(t, err, tc.field)
		})
	}
}

// TestDecodeUpdate does the same for the update codec.
func TestDecodeUpdate(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"status only", `{"status":"investigating"}`, ""},
		{"note only", `{"note":"checked optics"}`, ""},
		{"severity only", `{"severity":"sev1"}`, ""},
		{"all statuses", `{"status":"resolved"}`, ""},
		{"empty update", `{}`, "status"},
		{"unknown status", `{"status":"escalated"}`, "status"},
		{"bad severity", `{"severity":"sev7"}`, "severity"},
		{"unknown field", `{"closed":true}`, "!"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeUpdate([]byte(tc.body))
			checkFieldErr(t, err, tc.field)
		})
	}
}

func checkFieldErr(t *testing.T, err error, field string) {
	t.Helper()
	var fe *FieldError
	switch field {
	case "":
		if err != nil {
			t.Fatalf("want accept, got %v", err)
		}
	case "!":
		if err == nil {
			t.Fatal("want parse-level error, got accept")
		}
		if errors.As(err, &fe) {
			t.Fatalf("want non-field error, got FieldError %v", fe)
		}
	default:
		if err == nil {
			t.Fatal("want FieldError, got accept")
		}
		if !errors.As(err, &fe) {
			t.Fatalf("want FieldError, got %T %v", err, err)
		}
		if fe.Field != field {
			t.Fatalf("blamed field %q, want %q (%v)", fe.Field, field, fe)
		}
	}
}

// TestSeverityWireForm pins the canonical encoding and both accepted
// input forms.
func TestSeverityWireForm(t *testing.T) {
	t.Parallel()
	for n := 0; n <= MaxSeverity; n++ {
		s := Severity(n)
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want := `"sev` + string(rune('0'+n)) + `"`
		if string(b) != want {
			t.Fatalf("sev%d marshals %s, want %s", n, b, want)
		}
		var back Severity
		if err := back.UnmarshalJSON(b); err != nil || back != s {
			t.Fatalf("sev%d string form: got %v, %v", n, back, err)
		}
		if err := back.UnmarshalJSON([]byte{byte('0' + n)}); err != nil || back != s {
			t.Fatalf("sev%d int form: got %v, %v", n, back, err)
		}
	}
	if _, err := Severity(4).MarshalJSON(); err == nil {
		t.Fatal("out-of-range severity must not marshal")
	}
}

// TestDeriveSeedStable pins the seed derivation: a pure function of
// (base, id) — these exact values are what makes every historical
// incident replayable by ID.
func TestDeriveSeedStable(t *testing.T) {
	t.Parallel()
	if a, b := DeriveSeed(7, "inc-0001"), DeriveSeed(7, "inc-0001"); a != b {
		t.Fatalf("not a function: %d vs %d", a, b)
	}
	if a, b := DeriveSeed(7, "inc-0001"), DeriveSeed(7, "inc-0002"); a == b {
		t.Fatalf("ids collide: %d", a)
	}
	if a, b := DeriveSeed(7, "inc-0001"), DeriveSeed(8, "inc-0001"); a == b {
		t.Fatalf("bases collide: %d", a)
	}
}

// TestSimClock pins the sim side of the bridge: time only moves
// forward, and only when told.
func TestSimClock(t *testing.T) {
	t.Parallel()
	c := NewSimClock()
	if c.Now() != 0 {
		t.Fatal("sim clock must start at zero")
	}
	if got := c.AdvanceTo(10 * time.Minute); got != 10*time.Minute {
		t.Fatalf("advance to 10m: %v", got)
	}
	if got := c.AdvanceTo(5 * time.Minute); got != 10*time.Minute {
		t.Fatalf("clock moved backward: %v", got)
	}
	if got := c.Advance(-time.Hour); got != 10*time.Minute {
		t.Fatalf("negative advance moved clock: %v", got)
	}
	if got := c.Advance(5 * time.Minute); got != 15*time.Minute {
		t.Fatalf("advance 5m: %v", got)
	}
}

// TestWallClock pins the wall side: elapsed real time maps through the
// scale monotonically.
func TestWallClock(t *testing.T) {
	t.Parallel()
	c := NewWallClockAt(0, time.Minute)
	a := c.Now()
	time.Sleep(10 * time.Millisecond)
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backward: %v then %v", a, b)
	}
	if b < 400*time.Millisecond {
		// 10ms wall at 1s->1m is >= 600ms simulated; allow slack for
		// coarse timers.
		t.Fatalf("scale not applied: 10ms wall mapped to %v", b)
	}
}
