package fleet

// Tests of the scheduler's live (open-ended arrival stream) contract:
// Offer, StepTo, Lookup and DrainSharded. Each runs on a one-region
// ShardedScheduler — the single-cell fleet — and on three regions with
// work stealing on.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// liveLayout is one scheduler shape the live tests run under.
type liveLayout struct {
	name    string
	regions []string
	steal   bool
}

var liveLayouts = []liveLayout{
	{name: "one-region", regions: []string{DefaultRegion}},
	{name: "three-regions-steal", regions: []string{"r0", "r1", "r2"}, steal: true},
}

// config builds the layout's scheduler config from the per-region knobs.
func (l liveLayout) config(oces, queueLimit int) ShardedLiveConfig {
	return ShardedLiveConfig{Regions: l.regions, OCEs: oces, QueueLimit: queueLimit, Steal: l.steal}
}

// stepTime maps a random watermark onto the cadences under which the
// layout's report is a pure function of the arrival set. Steal decisions
// happen at tick barriers, so with stealing on the watermark must stay
// on the BatchStep grid; without stealing any time will do.
func (l liveLayout) stepTime(t time.Duration) time.Duration {
	if !l.steal {
		return t
	}
	const step = 15 * time.Minute // ShardedLiveConfig's default BatchStep
	return t - t%step
}

// liveArrivalSet draws a deterministic synthetic arrival set spread over
// the given regions: times, regions, severities and session results are
// all pure functions of the seed, so every test below can feed the
// identical set through different submission interleavings. The arrival
// rate scales with the region count, keeping each region's load fixed.
func liveArrivalSet(seed int64, n int, regions []string) []LiveArrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]LiveArrival, n)
	var now time.Duration
	for i := range out {
		now += time.Duration(rng.ExpFloat64() * float64(30*time.Minute) / float64(len(regions)))
		out[i] = LiveArrival{
			ID:       fmt.Sprintf("t-%03d", i),
			At:       now,
			Scenario: "synthetic",
			Severity: rng.Intn(4),
			Region:   regions[rng.Intn(len(regions))],
			Result: harness.Result{
				Scenario:  "synthetic",
				Mitigated: rng.Float64() < 0.8,
				TTM:       time.Duration(rng.ExpFloat64() * float64(45*time.Minute)),
			},
		}
	}
	return out
}

// TestLiveSubmissionOrderIndependence is the live determinism contract:
// the drained report is a pure function of the accepted arrival SET —
// submission order and step cadence must not change a thing. One
// reference run (in-order submission, single drain) against shuffled
// submissions with random StepTo interleavings.
func TestLiveSubmissionOrderIndependence(t *testing.T) {
	t.Parallel()
	for _, l := range liveLayouts {
		arrivals := liveArrivalSet(3, 60*len(l.regions), l.regions)
		cfg := l.config(2, 4)

		reference := func() *ShardedReport {
			s := NewSharded(cfg)
			for _, a := range arrivals {
				if err := s.Offer(a); err != nil {
					t.Fatal(err)
				}
			}
			return s.DrainSharded()
		}()
		if l.steal && reference.Stolen == 0 {
			t.Fatalf("%s: nothing stolen; load does not exercise stealing", l.name)
		}

		for trial := 0; trial < 5; trial++ {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			s := NewSharded(cfg)
			for _, i := range rng.Perm(len(arrivals)) {
				if err := s.Offer(arrivals[i]); err != nil {
					t.Fatal(err)
				}
				// Random watermark advances between submissions — but never
				// past an arrival not yet offered, or Offer would
				// (correctly) reject it as stale.
				if rng.Intn(3) == 0 {
					limit := never
					for _, j := range rng.Perm(len(arrivals)) {
						if _, ok := s.Lookup(arrivals[j].ID); !ok && arrivals[j].At < limit {
							limit = arrivals[j].At
						}
					}
					if limit > 0 && limit != never {
						s.StepTo(l.stepTime(time.Duration(rng.Int63n(int64(limit)))))
					}
				}
			}
			got := s.DrainSharded()
			if !reflect.DeepEqual(got, reference) {
				t.Fatalf("%s trial %d: report depends on submission interleaving:\ngot:  %+v\nwant: %+v",
					l.name, trial, got.Total, reference.Total)
			}
		}
	}
}

// TestLiveMatchesEngineSemantics is the scheduler's oracle test: at
// random StepTo cadences, a one-region ShardedScheduler must reproduce a
// plain engine batch run — every arrival in order, then run to idle —
// report for report.
func TestLiveMatchesEngineSemantics(t *testing.T) {
	t.Parallel()
	arrivals := liveArrivalSet(11, 80, []string{DefaultRegion})

	eng := newEngine(1, SeverityAging, 2, 30*time.Minute)
	for i, a := range arrivals {
		eng.add(Outcome{
			Index: i, Scenario: a.Scenario, Severity: a.Severity,
			Region: DefaultRegion, ArrivedAt: a.At, Result: a.Result,
		})
		eng.arrive(i)
	}
	eng.completeUntil(never)
	want := eng.report(1, nil, nil)
	if want.Shed == 0 {
		t.Fatal("oracle shed nothing; admission bound not exercised")
	}

	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := NewSharded(ShardedLiveConfig{OCEs: 1, QueueLimit: 2, AgingStep: 30 * time.Minute})
		for i, a := range arrivals {
			if err := s.Offer(a); err != nil {
				t.Fatal(err)
			}
			// Step to a random time no later than the next arrival.
			if i+1 < len(arrivals) && rng.Intn(2) == 0 {
				s.StepTo(s.Watermark() + time.Duration(rng.Int63n(int64(arrivals[i+1].At-s.Watermark())+1)))
			}
		}
		if got := s.DrainSharded().Total; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: scheduler and engine disagree:\nscheduler: %+v\nengine:    %+v", trial, got, want)
		}
	}
}

// TestLiveOfferErrors pins the admission-time error taxonomy.
func TestLiveOfferErrors(t *testing.T) {
	t.Parallel()
	for _, l := range liveLayouts {
		s := NewSharded(l.config(1, 0))
		home := l.regions[0]
		ok := LiveArrival{ID: "a", At: time.Hour, Region: home, Result: harness.Result{TTM: time.Minute}}
		if err := s.Offer(ok); err != nil {
			t.Fatal(err)
		}
		if err := s.Offer(ok); !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("%s: duplicate pending id: %v", l.name, err)
		}
		s.StepTo(2 * time.Hour)
		if err := s.Offer(LiveArrival{ID: "a", At: 3 * time.Hour, Region: home}); !errors.Is(err, ErrDuplicateID) {
			t.Fatalf("%s: duplicate admitted id: %v", l.name, err)
		}
		if err := s.Offer(LiveArrival{ID: "b", At: time.Hour, Region: home}); !errors.Is(err, ErrStaleArrival) {
			t.Fatalf("%s: stale arrival: %v", l.name, err)
		}
		if err := s.Offer(LiveArrival{ID: "", At: 3 * time.Hour, Region: home}); err == nil {
			t.Fatalf("%s: empty id accepted", l.name)
		}
		s.DrainSharded()
		if err := s.Offer(LiveArrival{ID: "c", At: 9 * time.Hour, Region: home}); !errors.Is(err, ErrDrained) {
			t.Fatalf("%s: post-drain offer: %v", l.name, err)
		}
		if rep1, rep2 := s.DrainSharded(), s.DrainSharded(); rep1 != rep2 {
			t.Fatalf("%s: DrainSharded is not idempotent", l.name)
		}
	}
}

// TestLiveLookupLifecycle walks one incident through every state the
// gateway can observe: pending → active → resolved, plus queued under a
// saturated 1-OCE pool. The third arrival finds its home saturated: one
// region sheds it, three regions with stealing run it on the next
// region's idle pool.
func TestLiveLookupLifecycle(t *testing.T) {
	t.Parallel()
	for _, l := range liveLayouts {
		s := NewSharded(l.config(1, 1))
		home := l.regions[0]
		offer := func(id string, at, ttm time.Duration) {
			t.Helper()
			if err := s.Offer(LiveArrival{ID: id, At: at, Region: home,
				Result: harness.Result{TTM: ttm, Mitigated: true}}); err != nil {
				t.Fatal(err)
			}
		}
		offer("first", 10*time.Minute, time.Hour)
		offer("second", 20*time.Minute, time.Hour)
		offer("third", 30*time.Minute, time.Hour)

		if st, ok := s.Lookup("first"); !ok || st.State != StatePending {
			t.Fatalf("%s: before any step: %+v %v", l.name, st, ok)
		}
		if _, ok := s.Lookup("nope"); ok {
			t.Fatalf("%s: unknown id resolved", l.name)
		}

		s.StepTo(35 * time.Minute)
		wantStates := map[string]LiveState{
			"first":  StateActive, // dispatched at 10m, busy until 70m
			"second": StateQueued, // pool busy, queue has room
			"third":  StateShed,   // queue full: admission control refuses
		}
		if l.steal {
			wantStates["third"] = StateActive // stolen at the 30m barrier
		}
		for id, want := range wantStates {
			if st, _ := s.Lookup(id); st.State != want {
				t.Fatalf("%s: %s at 35m: %v, want %v", l.name, id, st.State, want)
			}
		}
		third, _ := s.Lookup("third")
		if l.steal {
			if third.HandledBy != l.regions[1] || third.Outcome.Region != home {
				t.Fatalf("%s: stolen outcome: handled by %q, home %q", l.name, third.HandledBy, third.Outcome.Region)
			}
		} else if !third.Outcome.Result.Escalated || third.Outcome.Resolution != harness.EscalationPenalty {
			t.Fatalf("%s: shed outcome: %+v", l.name, third.Outcome)
		}

		s.StepTo(75 * time.Minute)
		if st, _ := s.Lookup("first"); st.State != StateResolved {
			t.Fatalf("%s: first at 75m: %v", l.name, st.State)
		}
		if st, _ := s.Lookup("second"); st.State != StateActive {
			t.Fatalf("%s: second at 75m: %v", l.name, st.State)
		}

		rep := s.DrainSharded().Total
		wantShed := 1
		if l.steal {
			wantShed = 0
		}
		if rep.Admitted != 3-wantShed || rep.Shed != wantShed {
			t.Fatalf("%s: drain: %d admitted, %d shed", l.name, rep.Admitted, rep.Shed)
		}
		if st, _ := s.Lookup("second"); st.State != StateResolved {
			t.Fatalf("%s: second after drain: %v", l.name, st.State)
		}
		if got := rep.Outcomes[0].ArrivedAt; got != 10*time.Minute {
			t.Fatalf("%s: first outcome arrived at %v", l.name, got)
		}
	}
}

// TestLiveObsDeterministic feeds the same arrival set (with recorded
// session streams) through different submission orders and step
// cadences and checks the sink's event log comes out byte-identical.
// Across regions, events from different shards interleave by the ticks
// StepTo runs, so there the log is a function of the StepTo sequence
// and only submission order may vary; the report is cadence-independent
// in every layout (TestLiveSubmissionOrderIndependence).
func TestLiveObsDeterministic(t *testing.T) {
	t.Parallel()
	for _, l := range liveLayouts {
		arrivals := liveArrivalSet(5, 30*len(l.regions), l.regions)
		// run offers the arrivals in batches of stepEvery (all at once
		// when 0), each batch in an order shuffled by seed, stepping the
		// watermark to the batch's last arrival after each.
		run := func(stepEvery int, seed int64) string {
			sink := obs.NewLogSink()
			cfg := l.config(2, 3)
			cfg.Obs, cfg.RunnerName = sink, "live-test"
			s := NewSharded(cfg)
			rng := rand.New(rand.NewSource(seed))
			if stepEvery == 0 {
				stepEvery = len(arrivals)
			}
			for lo := 0; lo < len(arrivals); lo += stepEvery {
				batch := arrivals[lo:min(lo+stepEvery, len(arrivals))]
				for _, i := range rng.Perm(len(batch)) {
					a := batch[i]
					rec := obs.AcquireRecorder("gw/" + a.ID)
					rec.Emit(obs.Event{Type: obs.EvSessionStart, Session: "gw/" + a.ID, Scenario: a.Scenario})
					a.Events = rec
					if err := s.Offer(a); err != nil {
						t.Fatal(err)
					}
				}
				if stepEvery < len(arrivals) {
					s.StepTo(l.stepTime(batch[len(batch)-1].At))
				}
			}
			s.DrainSharded()
			var buf bytes.Buffer
			if err := sink.WriteEvents(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		stepped := run(3, 0)
		if stepped == "" {
			t.Fatalf("%s: no events recorded", l.name)
		}
		if shuffled := run(3, 1); shuffled != stepped {
			t.Errorf("%s: event log depends on submission order", l.name)
		}
		if len(l.regions) == 1 && run(0, 2) != stepped {
			t.Errorf("%s: event log depends on step cadence", l.name)
		}
	}
}
