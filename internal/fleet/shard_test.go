package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/obs"
	"repro/internal/scenarios"
)

// shardScenario / shardRunner: a synthetic flat-cost incident class so
// the tests exercise the scheduler, not world construction.
type shardScenario struct{}

func (shardScenario) Name() string           { return "shardflat" }
func (shardScenario) RootCauseClass() string { return "test" }
func (shardScenario) Build(rng *rand.Rand) *scenarios.Instance {
	return &scenarios.Instance{Incident: &incident.Incident{Severity: rng.Intn(4)}, Scenario: shardScenario{}}
}

type shardRunner struct{}

func (shardRunner) Name() string { return "shardflat" }
func (shardRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	rng := rand.New(rand.NewSource(seed))
	mit := rng.Float64() < 0.85
	return harness.Result{
		Scenario: in.Scenario.Name(), Mitigated: mit, Escalated: !mit,
		TTM: time.Duration(10+rng.Intn(80)) * time.Minute,
	}
}

func regionNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("r%02d", i)
	}
	return out
}

// TestShardedWorkerByteIdentity is the core determinism claim with the
// full machinery on — storms, stealing, observability: workers=1 and
// workers=8 must agree byte-for-byte on tables, event logs and metrics.
func TestShardedWorkerByteIdentity(t *testing.T) {
	t.Parallel()
	run := func(workers int) (string, string, string) {
		sink := obs.NewLogSink()
		rep := SimulateSharded(ShardedConfig{
			Regions: regionNames(4), OCEs: 2, ArrivalsPerHour: 8, Incidents: 1500,
			QueueLimit: 3, Seed: 7, Workers: workers, Steal: true,
			Mix: []scenarios.Scenario{shardScenario{}}, Runner: shardRunner{},
			Storm: scenarios.StormConfig{Correlation: 0.35, MaxFanout: 3, Window: 20 * time.Minute},
			Obs:   sink,
		})
		total := 0
		for i := range rep.Regions {
			total += len(rep.Regions[i].Outcomes)
		}
		if total != 1500 || len(rep.Total.Outcomes) != 1500 {
			t.Fatalf("lost arrivals: region sum %d, total %d", total, len(rep.Total.Outcomes))
		}
		if rep.Total.Admitted+rep.Total.Shed != 1500 {
			t.Fatalf("admitted %d + shed %d != 1500", rep.Total.Admitted, rep.Total.Shed)
		}
		var ev, met bytes.Buffer
		if err := sink.WriteEvents(&ev); err != nil {
			t.Fatal(err)
		}
		if err := sink.WriteMetrics(&met); err != nil {
			t.Fatal(err)
		}
		return ShardedSummaryTable("steal", rep).String(), ev.String(), met.String()
	}
	t1, e1, m1 := run(1)
	t8, e8, m8 := run(8)
	if t1 != t8 {
		t.Errorf("tables differ between workers=1 and workers=8:\n%s\nvs\n%s", t1, t8)
	}
	if e1 != e8 {
		t.Error("event logs differ between workers=1 and workers=8")
	}
	if m1 != m8 {
		t.Error("metric dumps differ between workers=1 and workers=8")
	}
}

// TestStealEscalatesToIdleRegion drives the minimal steal scenario by
// hand: region a saturates (one responder busy, queue full), region b
// is idle, so the third arrival executes on b's pool at the tick
// barrier — homed in a, handled by b, charged the barrier latency.
func TestStealEscalatesToIdleRegion(t *testing.T) {
	t.Parallel()
	s := NewSharded(ShardedLiveConfig{
		Regions: []string{"a", "b"}, OCEs: 1, QueueLimit: 1,
		Steal: true, BatchStep: 10 * time.Minute,
	})
	long := harness.Result{Scenario: "synthetic", Mitigated: true, TTM: 5 * time.Hour}
	for i, at := range []time.Duration{1 * time.Minute, 2 * time.Minute, 3 * time.Minute} {
		if err := s.Offer(LiveArrival{
			ID: fmt.Sprintf("a-%d", i), At: at, Scenario: "synthetic", Region: "a", Result: long,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.StepTo(10 * time.Minute)
	st, ok := s.Lookup("a-2")
	if !ok {
		t.Fatal("a-2 not found")
	}
	if st.State != StateActive {
		t.Fatalf("a-2 state = %s, want active", st.State)
	}
	if st.HandledBy != "b" {
		t.Fatalf("a-2 HandledBy = %q, want b", st.HandledBy)
	}
	if st.Outcome.Region != "a" {
		t.Fatalf("a-2 home region = %q, want a", st.Outcome.Region)
	}
	if st.Outcome.Queue != 7*time.Minute {
		t.Fatalf("a-2 queue = %s, want 7m barrier latency", st.Outcome.Queue)
	}
	rep := s.DrainSharded()
	if rep.Stolen != 1 {
		t.Fatalf("stolen = %d, want 1", rep.Stolen)
	}
	if rep.Regions[0].Region != "a" || rep.Regions[0].StolenOut != 1 {
		t.Fatalf("region a stolenOut = %d, want 1", rep.Regions[0].StolenOut)
	}
	if rep.Regions[1].Region != "b" || rep.Regions[1].StolenIn != 1 {
		t.Fatalf("region b stolenIn = %d, want 1", rep.Regions[1].StolenIn)
	}
	if got := len(rep.Regions[1].Outcomes); got != 1 {
		t.Fatalf("region b executed %d outcomes, want 1", got)
	}
}

// TestStealSheds: when every region is saturated the overflow arrival
// sheds at its home shard, exactly like single-cell admission control —
// and with stealing disabled, saturation sheds immediately.
func TestStealSheds(t *testing.T) {
	t.Parallel()
	long := harness.Result{Scenario: "synthetic", Mitigated: true, TTM: 5 * time.Hour}
	build := func(steal bool) *ShardedScheduler {
		s := NewSharded(ShardedLiveConfig{
			Regions: []string{"a", "b"}, OCEs: 1, QueueLimit: 1,
			Steal: steal, BatchStep: 10 * time.Minute,
		})
		for _, r := range []string{"a", "b"} {
			for i, at := range []time.Duration{1 * time.Minute, 2 * time.Minute, 3 * time.Minute} {
				if err := s.Offer(LiveArrival{
					ID: fmt.Sprintf("%s-%d", r, i), At: at, Scenario: "synthetic", Region: r, Result: long,
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.StepTo(10 * time.Minute)
		return s
	}
	for _, steal := range []bool{true, false} {
		s := build(steal)
		for _, id := range []string{"a-2", "b-2"} {
			st, ok := s.Lookup(id)
			if !ok || st.State != StateShed {
				t.Fatalf("steal=%v: %s state = %v, want shed", steal, id, st.State)
			}
		}
		if rep := s.DrainSharded(); rep.Stolen != 0 || rep.Total.Shed != 2 {
			t.Fatalf("steal=%v: stolen %d shed %d, want 0 and 2", steal, rep.Stolen, rep.Total.Shed)
		}
	}
}

// TestShardedRegionValidation: unknown regions are refused at Offer,
// and an empty region normalizes to DefaultRegion.
func TestShardedRegionValidation(t *testing.T) {
	t.Parallel()
	s := NewSharded(ShardedLiveConfig{Regions: []string{"eu", "us"}})
	err := s.Offer(LiveArrival{ID: "x", At: time.Minute, Region: "mars",
		Result: harness.Result{TTM: time.Minute}})
	if !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("unknown region error = %v, want ErrUnknownRegion", err)
	}

	d := NewSharded(ShardedLiveConfig{})
	if got := d.Regions(); len(got) != 1 || got[0] != DefaultRegion {
		t.Fatalf("default regions = %v", got)
	}
	if err := d.Offer(LiveArrival{ID: "y", At: time.Minute,
		Result: harness.Result{TTM: time.Minute, Mitigated: true}}); err != nil {
		t.Fatal(err)
	}
	d.StepTo(time.Minute)
	st, ok := d.Lookup("y")
	if !ok || st.Outcome.Region != DefaultRegion {
		t.Fatalf("empty region lookup = %+v, want home %q", st, DefaultRegion)
	}
}

// TestShardedSingleRegionMatchesLive: a one-region sharded scheduler
// (stealing off) is semantically the single-cell live fleet — one engine
// fed every arrival in order and run to idle. The drained outcomes must
// match field-for-field and the aggregate tables byte-for-byte.
func TestShardedSingleRegionMatchesLive(t *testing.T) {
	t.Parallel()
	arrivals := liveArrivalSet(11, 80, []string{DefaultRegion})

	eng := newEngine(2, SeverityAging, 4, 30*time.Minute)
	for i, a := range arrivals {
		eng.add(Outcome{
			Scenario: a.Scenario, Severity: a.Severity,
			Region: DefaultRegion, ArrivedAt: a.At, Result: a.Result,
		})
		eng.arrive(i)
	}
	eng.completeUntil(never)
	lr := eng.report(2, nil, nil)

	sharded := NewSharded(ShardedLiveConfig{OCEs: 2, QueueLimit: 4})
	for _, a := range arrivals {
		if err := sharded.Offer(a); err != nil {
			t.Fatal(err)
		}
	}
	sr := sharded.DrainSharded().Total
	if len(lr.Outcomes) != len(sr.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(lr.Outcomes), len(sr.Outcomes))
	}
	for i := range sr.Outcomes {
		if want, got := lr.Outcomes[i], sr.Outcomes[i]; !reflect.DeepEqual(want, got) {
			t.Fatalf("outcome %d differs:\nlive    %+v\nsharded %+v", i, want, got)
		}
	}
	a := SummaryTable("x", []Arm{{Name: "arm", Report: lr}}).String()
	b := SummaryTable("x", []Arm{{Name: "arm", Report: sr}}).String()
	if a != b {
		t.Fatalf("aggregate tables differ:\n%s\nvs\n%s", a, b)
	}
}

// TestRegionDrainUsesLatestArrival: a region's outcomes are in placement
// order, and a steal pass places a tick's overflow after the tick's
// admissions, so the last outcome need not be the latest arrival. Drain
// must run from the latest arrival to the pool going idle.
func TestRegionDrainUsesLatestArrival(t *testing.T) {
	t.Parallel()
	rep := SimulateSharded(ShardedConfig{
		Regions: regionNames(16), OCEs: 2, ArrivalsPerHour: 8, Incidents: 5000,
		QueueLimit: 3, Seed: 1, Workers: 2, Steal: true,
		Mix: []scenarios.Scenario{shardScenario{}}, Runner: shardRunner{},
	})
	staleTail := 0
	for _, rr := range rep.Regions {
		var last, makespan time.Duration
		for _, o := range rr.Outcomes {
			last = max(last, o.ArrivedAt)
			if !o.Shed {
				makespan = max(makespan, o.StartedAt+o.Handling)
			}
		}
		if rr.Outcomes[len(rr.Outcomes)-1].ArrivedAt < last {
			staleTail++
		}
		if want := max(makespan-last, 0); rr.Drain != want {
			t.Errorf("region %s: Drain %s, want makespan %s - latest arrival %s = %s",
				rr.Region, rr.Drain, makespan, last, want)
		}
	}
	if staleTail == 0 {
		t.Fatal("every region's last outcome is its latest arrival; the steal path went unexercised")
	}
}
