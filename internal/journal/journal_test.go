package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sev(n int) *int { return &n }

// stamped is what records look like after Append: the current format
// version stamped onto any record that did not carry one.
func stamped(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	for i := range out {
		if out[i].V == 0 {
			out[i].V = Version
		}
	}
	return out
}

func sample() []Record {
	return []Record{
		{Kind: KindAccepted, ID: "inc-0001", AtMinutes: 1.5, Scenario: "gray-link",
			Severity: sev(2), Title: "packet loss on wan-2", ReportedBy: "netops",
			OpenedAtMinutes: 1.5},
		{Kind: KindPatched, ID: "inc-0001", AtMinutes: 3, Status: "investigating",
			Note: "netops: looking\ninto it"},
		{Kind: KindShed, ID: "inc-0002", AtMinutes: 4},
		{Kind: KindResolved, ID: "inc-0001", AtMinutes: 9, Status: "resolved"},
	}
}

// TestRoundTrip: encode-then-decode is the identity on a record stream,
// and newlines inside fields never break line framing (JSON escapes
// them).
func TestRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	want := sample()
	for _, r := range want {
		line, err := Encode(r)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if bytes.Count(line, []byte("\n")) != 1 {
			t.Fatalf("record line not newline-framed: %q", line)
		}
		buf.Write(line)
	}
	got, good, dropped := Decode(buf.Bytes())
	if good != buf.Len() || dropped != 0 {
		t.Fatalf("Decode consumed %d/%d bytes, dropped %d", good, buf.Len(), dropped)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestTornTailDropped: truncating the stream at any byte keeps a clean
// prefix of whole records and drops exactly the torn tail.
func TestTornTailDropped(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	recs := sample()
	ends := make([]int, 0, len(recs))
	for _, r := range recs {
		line, _ := Encode(r)
		buf.Write(line)
		ends = append(ends, buf.Len())
	}
	data := buf.Bytes()
	for cut := 0; cut <= len(data); cut++ {
		got, good, _ := Decode(data[:cut])
		whole := 0
		for _, e := range ends {
			if e <= cut {
				whole++
			}
		}
		if len(got) != whole {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(got), whole)
		}
		if whole > 0 && good != ends[whole-1] {
			t.Fatalf("cut %d: clean boundary %d, want %d", cut, good, ends[whole-1])
		}
		if whole > 0 && !reflect.DeepEqual(got, recs[:whole]) {
			t.Fatalf("cut %d: prefix mismatch", cut)
		}
	}
}

// TestCorruptLineTruncates: a bit flip inside a record invalidates that
// record and everything after it — no silent acceptance.
func TestCorruptLineTruncates(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	for _, r := range sample() {
		line, _ := Encode(r)
		buf.Write(line)
	}
	data := buf.Bytes()
	line1, _ := Encode(sample()[0])
	data[len(line1)+12] ^= 0x20 // flip a byte inside record 2's payload
	got, good, dropped := Decode(data)
	if len(got) != 1 || good != len(line1) {
		t.Fatalf("corrupt line: got %d records, boundary %d (want 1, %d)", len(got), good, len(line1))
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
}

// TestOpenAppendReplay: records appended through one handle come back
// from a fresh Open, and the handle's stats track them.
func TestOpenAppendReplay(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, rr, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rr.Records) != 0 || rr.Dropped != 0 {
		t.Fatalf("fresh journal not empty: %+v", rr)
	}
	want := sample()
	total := 0
	for _, r := range want {
		n, err := j.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		total += n
	}
	if n, b := j.Stats(); n != len(want) || b != int64(total) {
		t.Fatalf("Stats = (%d, %d), want (%d, %d)", n, b, len(want), total)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, rr2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(rr2.Records, stamped(want)) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", rr2.Records, stamped(want))
	}
	if rr2.Dropped != 0 {
		t.Fatalf("replay stats: %+v", rr2)
	}
	fi, err := os.Stat(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(total) {
		t.Fatalf("journal holds %d bytes, want the %d appended", fi.Size(), total)
	}
	if got := rr2.MaxAtMinutes(); got != 9 {
		t.Fatalf("MaxAtMinutes = %v, want 9", got)
	}
}

// TestOpenTruncatesTornTail: a partial final line (the SIGKILL
// signature) is cut away on Open, and appends after recovery land on a
// clean boundary — no grafting onto the torn line.
func TestOpenTruncatesTornTail(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	first := sample()[0]
	if _, err := j.Append(first); err != nil {
		t.Fatalf("Append: %v", err)
	}
	j.Close()
	// Simulate a torn write: half a record, no newline.
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	if _, err := f.WriteString(`deadbeef {"kind":"accepted","id":"torn`); err != nil {
		t.Fatalf("write torn: %v", err)
	}
	f.Close()

	j2, rr, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rr.Records) != 1 || rr.Dropped != 1 {
		t.Fatalf("recovered %d records, dropped %d (want 1, 1)", len(rr.Records), rr.Dropped)
	}
	second := sample()[1]
	if _, err := j2.Append(second); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	j2.Close()
	rr2, err := Replay(dir)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if want := stamped([]Record{first, second}); !reflect.DeepEqual(rr2.Records, want) {
		t.Fatalf("post-recovery stream:\n got %+v\nwant %+v", rr2.Records, want)
	}
}

// TestReplayMissingDir: replaying a journal that was never created is
// an empty result, not an error (first boot with -journal).
func TestReplayMissingDir(t *testing.T) {
	t.Parallel()
	rr, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(rr.Records) != 0 {
		t.Fatalf("Replay(missing) = %+v, %v", rr, err)
	}
}

// TestVersioning pins the record-format version rules: legacy V0 lines
// (no "v" field at all — the pre-region format) decode cleanly with an
// empty Region, V2 lines round-trip the region, and a future-version
// line truncates the stream like corruption would.
func TestVersioning(t *testing.T) {
	t.Parallel()

	// A verbatim pre-region line, exactly as a PR 7 gateway wrote it.
	legacy, err := Encode(Record{Kind: KindAccepted, ID: "old-1", AtMinutes: 2,
		Scenario: "gray-link", OpenedAtMinutes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(legacy, []byte(`"v"`)) || bytes.Contains(legacy, []byte(`"region"`)) {
		t.Fatalf("zero-valued version/region leak into the legacy encoding: %s", legacy)
	}
	recs, good, dropped := Decode(legacy)
	if len(recs) != 1 || good != len(legacy) || dropped != 0 {
		t.Fatalf("legacy decode: %d records, %d/%d bytes, %d dropped", len(recs), good, len(legacy), dropped)
	}
	if recs[0].V != 0 || recs[0].Region != "" {
		t.Fatalf("legacy record = %+v, want V0 with empty region", recs[0])
	}

	// Current-format region round trip.
	line, err := Encode(Record{V: Version, Kind: KindAccepted, ID: "new-1",
		AtMinutes: 3, Region: "eu-west"})
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ = Decode(line)
	if len(recs) != 1 || recs[0].Region != "eu-west" || recs[0].V != Version {
		t.Fatalf("region round trip: %+v", recs)
	}

	// A future version truncates the stream at that record.
	future, err := Encode(Record{V: Version + 1, Kind: KindAccepted, ID: "fut-1", AtMinutes: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs, good, dropped = Decode(append(append([]byte(nil), legacy...), future...))
	if len(recs) != 1 || good != len(legacy) || dropped != 1 {
		t.Fatalf("future version: %d records, boundary %d (want %d), %d dropped",
			len(recs), good, len(legacy), dropped)
	}
}

// TestAppendAfterClose fails loudly instead of writing nowhere.
func TestAppendAfterClose(t *testing.T) {
	t.Parallel()
	j, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	j.Close()
	if _, err := j.Append(sample()[0]); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}
