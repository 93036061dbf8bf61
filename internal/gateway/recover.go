package gateway

// Boot-time journal recovery: replay the write-ahead incident journal
// into a freshly constructed gateway so a restart — graceful or SIGKILL
// — preserves every acknowledged arrival. The replay rebuilds the
// canonical records (accepted fields, then patches in journal order),
// re-executes each unresolved incident's session from its derived seed
// (DeriveSeed(base, id) — byte-identical to the pre-crash run), and
// re-offers the arrivals into the live scheduler before advancing the
// watermark to the journal's high-water mark. The sessions re-run in
// parallel on the trial pool, one per GOMAXPROCS worker: each is
// self-contained (its own seed, world and event recorder), and the
// Runner is already safe for concurrent use because live creates run
// sessions concurrently. The arrivals are then offered one by one in
// journal order, so the scheduler sees exactly the serial replay's
// input whatever the worker count. Offering everything first
// and advancing once means the engine replays admissions, dispatches
// and sheds in (At, ID) order: the same deterministic schedule the
// pre-crash process was executing, with each incident holding exactly
// one slot (zero duplicate execution).
//
// Caller-resolved incidents are restored as records but NOT re-offered:
// the caller already declared them terminal, so burning a responder on
// them would be duplicate work. Shed records are informational — a
// re-offered arrival re-sheds deterministically under the same
// admission state, which also means a recovering boot may append fresh
// shed records for arrivals shed again during replay.

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// RecoverStats summarizes a boot-time journal replay.
type RecoverStats struct {
	// Records is the count of clean journal records applied.
	Records int
	// Dropped counts torn/corrupt tail lines the decoder discarded.
	Dropped int
	// Reoffered is how many incidents re-ran and re-entered the
	// scheduler.
	Reoffered int
	// Resolved is how many caller-resolved incidents were restored as
	// records only.
	Resolved int
}

// recovered accumulates one incident's state across its journal
// records.
type recovered struct {
	rec      *Record
	scenario string
	severity int // effective severity at accept time (what scheduling saw)
	resolved bool
}

// Recover replays a journal into the gateway. Call it exactly once, on
// a freshly built server, before serving traffic; it flips /readyz to
// ready when done (even on an empty replay — first boot). An error
// means the journal and scheduler disagree (a harness bug or an
// operator pointing -journal at the wrong directory), not a torn tail:
// torn tails are dropped silently by design.
func (s *Server) Recover(rr journal.ReplayResult) (RecoverStats, error) {
	defer s.ready.Store(true)
	stats := RecoverStats{Records: len(rr.Records), Dropped: rr.Dropped}

	var order []string
	ghosts := map[string]*recovered{}
	for _, r := range rr.Records {
		switch r.Kind {
		case journal.KindAccepted:
			if r.ID == "" || ghosts[r.ID] != nil {
				continue // defensive: the gateway never double-accepts
			}
			sev := 0
			if r.Severity != nil {
				sev = *r.Severity
			}
			// Legacy (V0, pre-region) records home in the default region,
			// which is how an old single-cell WAL replays cleanly into a
			// sharded scheduler.
			region := r.Region
			if region == "" {
				region = fleet.DefaultRegion
			}
			ghosts[r.ID] = &recovered{
				rec: &Record{
					ID: r.ID, Scenario: r.Scenario, Region: region,
					Title: r.Title, Summary: r.Summary, Service: r.Service,
					Severity: Severity(sev), Status: "open",
					ReportedBy:      r.ReportedBy,
					OpenedAtMinutes: r.OpenedAtMinutes,
				},
				scenario: r.Scenario, severity: sev,
			}
			order = append(order, r.ID)
		case journal.KindPatched, journal.KindResolved:
			g := ghosts[r.ID]
			if g == nil {
				continue
			}
			if r.Status != "" {
				g.rec.Status = r.Status
			}
			if r.Severity != nil {
				g.rec.Severity = Severity(*r.Severity)
			}
			if r.Note != "" {
				g.rec.Notes = append(g.rec.Notes, r.Note)
			}
			g.resolved = g.rec.Status == "resolved"
		case journal.KindShed:
			// Informational; the re-offer below re-derives the shed.
		}
	}

	s.mu.Lock()
	for id, g := range ghosts {
		s.records[id] = g.rec
		// Resume the auto-ID counter past journaled gateway-assigned
		// IDs so post-recovery creates never collide.
		var n int
		if _, err := fmt.Sscanf(id, "inc-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	s.mu.Unlock()

	var rerun []string
	for _, id := range order {
		if ghosts[id].resolved {
			stats.Resolved++
		} else {
			rerun = append(rerun, id)
		}
	}
	// Recorders are acquired up front, in journal order, so a session
	// that panics cannot strand one; every recorder not yet handed to
	// the scheduler is released on the way out of an error.
	or, observed := s.cfg.Runner.(harness.ObservedRunner)
	observed = observed && s.cfg.Sink != nil
	recs := make([]*obs.Recorder, len(rerun))
	if observed {
		for i, id := range rerun {
			recs[i] = obs.AcquireRecorder("gw/" + id)
		}
	}
	release := func(from int) {
		for _, rec := range recs[from:] {
			if rec != nil {
				rec.Release()
			}
		}
	}
	results := parallel.RunTrials(len(rerun), 0, 0, func(_ int64, i int) harness.Result {
		id := rerun[i]
		seed := DeriveSeed(s.cfg.Seed, id)
		in := scenarios.ByName(ghosts[id].scenario).Build(randsrc.New(seed))
		in.Incident.Severity = ghosts[id].severity
		in.Incident.ID = id
		if observed {
			return or.RunObserved(in, seed, recs[i])
		}
		return s.cfg.Runner.Run(in, seed)
	})
	for i, r := range results {
		if r.Err != nil {
			release(0)
			return stats, fmt.Errorf("gateway: recover %s: %w", rerun[i], r.Err)
		}
	}
	for i, id := range rerun {
		g := ghosts[id]
		err := s.cfg.Sched.Offer(fleet.LiveArrival{
			ID: id, At: time.Duration(g.rec.OpenedAtMinutes * float64(time.Minute)),
			Scenario: g.scenario, Region: g.rec.Region, Severity: g.severity,
			Result: results[i].Value, Events: recs[i],
		})
		if err != nil {
			release(i)
			return stats, fmt.Errorf("gateway: recover %s: %w", id, err)
		}
		stats.Reoffered++
	}

	if ac, ok := s.cfg.Clock.(AdvanceClock); ok {
		ac.AdvanceTo(time.Duration(rr.MaxAtMinutes() * float64(time.Minute)))
	}
	s.cfg.Sched.StepTo(s.cfg.Clock.Now())
	if s.cfg.Sink != nil && len(rr.Records) > 0 {
		s.cfg.Sink.Registry().Inc(obs.MJournalReplayed, nil, float64(len(rr.Records)))
	}
	return stats, nil
}
