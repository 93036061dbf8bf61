package gateway

// Cross-version durability: a write-ahead journal produced by the
// pre-region gateway (V0 records — no "v", no "region" on the wire)
// must replay cleanly into a sharded multi-region scheduler, homing
// every legacy incident in the default region. This is the upgrade
// path: swap the binary, point it at the old journal directory, boot.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/obs"
)

func TestLegacyJournalReplaysIntoShardedScheduler(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	// Hand-write the WAL with Encode (which stamps nothing), byte-for-
	// byte what a PR 7 gateway fsync'd: version and region fields absent.
	sev := 2
	legacy := []journal.Record{
		{Kind: journal.KindAccepted, ID: "old-1", AtMinutes: 0, Scenario: "gray-link",
			Severity: &sev, Title: "loss on wan-2", ReportedBy: "tenant-a", OpenedAtMinutes: 0},
		{Kind: journal.KindAccepted, ID: "old-2", AtMinutes: 3, Scenario: "congestion",
			ReportedBy: "tenant-b", OpenedAtMinutes: 3},
		{Kind: journal.KindPatched, ID: "old-1", AtMinutes: 5, Status: "investigating",
			Note: "tenant-a: checking optics"},
	}
	var raw []byte
	for _, r := range legacy {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, journal.EncodeFrame(payload)...)
	}
	if err := os.WriteFile(filepath.Join(dir, journal.FileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	jr, rr, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if len(rr.Records) != 3 || rr.Dropped != 0 {
		t.Fatalf("replay = %d records, %d dropped, want 3/0", len(rr.Records), rr.Dropped)
	}
	for _, r := range rr.Records {
		if r.V != 0 || r.Region != "" {
			t.Fatalf("legacy record decoded with V%d region %q, want V0 empty", r.V, r.Region)
		}
	}

	// Boot a sharded multi-region gateway over the legacy journal.
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
	sink := obs.NewSink()
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: []string{"default", "eu-west"}, OCEs: 2,
		Obs: sink, RunnerName: runner.Name(),
	})
	clock := NewSimClock()
	gw := NewServer(Config{
		Keys:  map[string]string{"k-tenant-a": "tenant-a"},
		Clock: clock, Sched: sched, Runner: runner, Seed: 7,
		Sink: sink, SimControl: true, Journal: jr,
	})
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	st := &testStack{ts: ts, sched: sched, clock: clock, sink: sink}

	stats, err := gw.Recover(rr)
	if err != nil {
		t.Fatalf("legacy WAL did not replay into the sharded scheduler: %v", err)
	}
	if stats.Records != 3 || stats.Reoffered != 2 {
		t.Fatalf("recover stats = %+v, want 3 records, 2 re-offered", stats)
	}

	// Every legacy incident is homed in the default region, with its
	// patched state intact.
	var rec Record
	status, body := st.do(t, "GET", "/v1/incidents/old-1", "k-tenant-a", "")
	if status != http.StatusOK {
		t.Fatalf("get old-1: HTTP %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Region != fleet.DefaultRegion {
		t.Fatalf("old-1 region = %q, want %q", rec.Region, fleet.DefaultRegion)
	}
	if rec.Status != "investigating" || len(rec.Notes) != 1 {
		t.Fatalf("old-1 lost its patch: %+v", rec)
	}

	// The region filter sees them, and post-recovery creates can home
	// in the new region alongside them.
	status, body = st.do(t, "GET", "/v1/incidents?region=default", "k-tenant-a", "")
	if status != http.StatusOK {
		t.Fatalf("list: HTTP %d: %s", status, body)
	}
	var page ListPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Incidents) != 2 {
		t.Fatalf("region=default lists %d records, want 2", len(page.Incidents))
	}
	if status, body = st.do(t, "POST", "/v1/incidents", "k-tenant-a",
		`{"id":"new-eu","scenario":"gray-link","region":"eu-west","opened_at_minutes":10}`); status != http.StatusCreated {
		t.Fatalf("post-recovery create: HTTP %d: %s", status, body)
	}

	// Drain carries the per-region breakdown: the two legacy incidents
	// plus the new one, none lost.
	status, body = st.do(t, "POST", "/v1/sim/drain", "k-tenant-a", "")
	if status != http.StatusOK {
		t.Fatalf("drain: HTTP %d: %s", status, body)
	}
	var sum DrainSummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Incidents != 3 || len(sum.Regions) != 2 {
		t.Fatalf("drain = %d incidents across %d regions, want 3 across 2", sum.Incidents, len(sum.Regions))
	}
	if sum.Regions[0].Region != "default" || sum.Regions[0].Incidents != 2 {
		t.Fatalf("default region drained %+v, want 2 incidents", sum.Regions[0])
	}
	if sum.Regions[1].Region != "eu-west" || sum.Regions[1].Incidents != 1 {
		t.Fatalf("eu-west region drained %+v, want 1 incident", sum.Regions[1])
	}
}
