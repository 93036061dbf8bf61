package lake

// Open keeps each replayed entry's event stream raw and decodes it on
// read. These tests hold that to an eager decode of the same frames,
// check which malformed streams still truncate the log, and gate the
// allocation count of a reopen.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// realEntries returns 120 lake entries the way the gateway ingests them:
// one assisted helper session per entry, cycling through every
// scenario, with the session's recorded event stream (~9 KB encoded).
var realEntries = sync.OnceValue(func() []Entry {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	all := scenarios.All()
	out := make([]Entry, 120)
	for i := range out {
		id, seed := fmt.Sprintf("inc-%d", i+1), int64(i+1)
		in := all[i%len(all)].Build(randsrc.New(seed))
		rec := &obs.Recorder{Session: "gw/" + id}
		res := runner.RunObserved(in, seed, rec)
		out[i] = NewEntry(id, runner.Name(), in, res, seed, rec.Events)
		out[i].Region = []string{"us-east", "eu-west"}[i%2]
	}
	return out
})

// writeLake appends entries to a fresh lake in dir and closes it.
func writeLake(tb testing.TB, dir string, entries []Entry) {
	tb.Helper()
	l, _, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		if _, err := l.Append(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
}

// appendRaw writes bytes to the end of the lake log as they are.
func appendRaw(t *testing.T, dir string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLakeLazyMatchesEager is the differential oracle for the lazy
// event stream: over a lake written by Append from every scenario, with
// one duplicate ID and one torn tail, Get, Entries and ByTag after
// Open must equal an eager json.Unmarshal of each clean payload.
func TestLakeLazyMatchesEager(t *testing.T) {
	dir := t.TempDir()
	entries := append([]Entry(nil), realEntries()[:30]...)
	dup := realEntries()[40]
	dup.ID = entries[5].ID // a client retry: last write wins, in place
	writeLake(t, dir, append(entries, dup))
	appendRaw(t, dir, []byte(`deadbeef {"v":1,"id":"inc-torn","events":[{"type":`))

	l, rr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Entries != 30 || rr.Dropped != 1 {
		t.Fatalf("Open replayed %+v, want 30 entries and 1 dropped", rr)
	}
	got := l.Entries()
	byTag := map[string][]Entry{}
	for _, tc := range l.Tags() {
		byTag[tc.Tag] = l.ByTag(tc.Tag)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var want []Entry
	pos := map[string]int{}
	ff, _, dropped, err := OpenFrameLog(dir, func(payload []byte) bool {
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatalf("eager decode: %v", err)
		}
		if i, ok := pos[e.ID]; ok {
			want[i] = e
			return true
		}
		pos[e.ID] = len(want)
		want = append(want, e)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	ff.Close()
	if dropped != 0 {
		t.Fatalf("Open left %d torn lines behind", dropped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Entries after Open differ from an eager decode of the log")
	}
	if got[5].Scenario != dup.Scenario || len(got[5].Events) != len(dup.Events) {
		t.Fatalf("duplicate %s: last write did not win", dup.ID)
	}
	l2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, e := range want {
		if g, ok := l2.Get(e.ID); !ok || !reflect.DeepEqual(g, e) {
			t.Fatalf("Get(%s) differs from the eager decode", e.ID)
		}
	}
	if len(byTag) < 10 {
		t.Fatalf("only %d tags over every scenario", len(byTag))
	}
	for tag, tagged := range byTag {
		var w []Entry
		for _, e := range want {
			for _, et := range e.Tags {
				if et == tag {
					w = append(w, e)
					break
				}
			}
		}
		if !reflect.DeepEqual(tagged, w) {
			t.Fatalf("ByTag(%s) differs from the eager decode", tag)
		}
	}
}

// TestLakeOpenEventsShape: a CRC-clean frame whose event stream is not
// an array of objects still truncates the log at Open, exactly where an
// eager decode would. An ill-typed field inside an event object is the
// one shape Open no longer rejects; reading it must not panic, and it
// reads back as no events.
func TestLakeOpenEventsShape(t *testing.T) {
	frame := func(events string) []byte {
		return journal.EncodeFrame([]byte(`{"v":1,"id":"inc-x","scenario":"gray-link","tags":["x"],"events":` + events + `}`))
	}
	good := sampleEntries()
	for _, tc := range []struct {
		events string
		kept   bool
	}{
		{`null`, true},
		{`[]`, true},
		{` [ null , {"type":"hypothesis","detail":"a]\"[,{"} ]`, true},
		{`[{"at":5,"outcome":{"mitigated":true}},{}]`, true},
		{`"events"`, false},
		{`{"type":"hypothesis"}`, false},
		{`12`, false},
		{`true`, false},
		{`[1]`, false},
		{`[{}, "x"]`, false},
		{`[{},[]]`, false},
		{`[{}, true]`, false},
	} {
		var eager Entry
		if eagerOK := json.Unmarshal(frame(tc.events)[9:], &eager) == nil; eagerOK != tc.kept {
			t.Fatalf("events %s: eager decode ok=%v, test expects kept=%v", tc.events, eagerOK, tc.kept)
		}
		dir := t.TempDir()
		writeLake(t, dir, good[:2])
		appendRaw(t, dir, append(frame(tc.events), journal.EncodeFrame([]byte(`{"v":1,"id":"inc-after"}`))...))
		l, rr, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := RecoverResult{Entries: 2, Dropped: 2}
		if tc.kept {
			want = RecoverResult{Entries: 4}
		}
		if rr.Entries != want.Entries || rr.Dropped != want.Dropped {
			t.Errorf("events %s: Open = %+v, want %d entries, %d dropped", tc.events, rr, want.Entries, want.Dropped)
		}
		if e, ok := l.Get("inc-x"); tc.kept && (!ok || !reflect.DeepEqual(e, eager)) {
			t.Errorf("events %s: Get = %+v, want the eager decode %+v", tc.events, e, eager)
		}
		l.Close()
	}

	dir := t.TempDir()
	writeLake(t, dir, nil)
	appendRaw(t, dir, frame(`[{"type":"hypothesis"},{"at":"soon","round":"two"}]`))
	l, rr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rr.Entries != 1 || rr.Dropped != 0 {
		t.Fatalf("ill-typed event fields: Open = %+v, want the entry kept", rr)
	}
	e, ok := l.Get("inc-x")
	if !ok || e.Events != nil || e.Scenario != "gray-link" {
		t.Fatalf("ill-typed event fields: Get = %+v, want the header with no events", e)
	}
	if es := l.ByTag("x"); len(es) != 1 || es[0].Events != nil {
		t.Fatalf("ill-typed event fields: ByTag = %+v", es)
	}
}

// TestLakeOpenAllocs gates the reopen cost of 120 real entries: about
// 60 allocations per entry (an eager decode of the event streams takes
// about 250).
func TestLakeOpenAllocs(t *testing.T) {
	dir := t.TempDir()
	entries := realEntries()
	writeLake(t, dir, entries)
	allocs := testing.AllocsPerRun(3, func() {
		l, rr, err := Open(dir)
		if err != nil || rr.Entries != len(entries) {
			t.Fatalf("Open = %+v, %v", rr, err)
		}
		l.Close()
	})
	if per := allocs / float64(len(entries)); per > 60 {
		t.Fatalf("Open allocates %.1f objects per entry, want at most 60", per)
	}
}
