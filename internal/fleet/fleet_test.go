package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/incident"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/scenarios"
)

func currentKB() *kb.KB {
	k := kb.Default()
	kb.ApplyFastpathUpdate(k)
	return k
}

// fixedScenario builds minimal instances with a chosen severity — the
// scheduler only reads Incident.Severity and hands the instance to the
// runner, so scheduling-discipline tests can control priorities exactly.
type fixedScenario struct {
	name string
	sev  int
}

func (s *fixedScenario) Name() string           { return s.name }
func (s *fixedScenario) RootCauseClass() string { return "test" }
func (s *fixedScenario) Build(rng *rand.Rand) *scenarios.Instance {
	return &scenarios.Instance{Incident: &incident.Incident{Severity: s.sev}, Scenario: s}
}

// fixedRunner resolves every incident in a constant time, making queue
// dynamics a pure function of the arrival process.
type fixedRunner struct{ ttm time.Duration }

func (r *fixedRunner) Name() string { return "fixed" }
func (r *fixedRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	return harness.Result{Scenario: in.Scenario.Name(), Mitigated: true, Correct: true, TTM: r.ttm}
}

// TestResolutionAccountingExact is the scheduler's bookkeeping
// invariant: for every admitted arrival, resolution time equals queue
// wait plus the session's penalized TTM exactly; shed arrivals carry
// exactly the escalation penalty.
func TestResolutionAccountingExact(t *testing.T) {
	t.Parallel()
	rep := Simulate(Config{
		OCEs: 2, ArrivalsPerHour: 6, Incidents: 120, Seed: 7, QueueLimit: 4,
		Runner: &harness.ControlRunner{KBase: currentKB()},
	})
	for _, o := range rep.Outcomes {
		if o.Shed {
			if o.Resolution != harness.EscalationPenalty {
				t.Fatalf("shed arrival %d: resolution %v != escalation penalty", o.Index, o.Resolution)
			}
			if o.Queue != 0 || o.Responder != -1 {
				t.Fatalf("shed arrival %d queued or got a responder", o.Index)
			}
			continue
		}
		if got, want := o.Resolution, o.Queue+o.Result.PenalizedTTM(); got != want {
			t.Fatalf("arrival %d: resolution %v != queue %v + penalized TTM %v", o.Index, got, o.Queue, o.Result.PenalizedTTM())
		}
		if o.Handling != o.Result.TTM {
			t.Fatalf("arrival %d: handling %v != session TTM %v", o.Index, o.Handling, o.Result.TTM)
		}
		if o.StartedAt < o.ArrivedAt {
			t.Fatalf("arrival %d started before it arrived", o.Index)
		}
	}
}

// TestNoLostNoDuplicateUnderBackpressureAndDrain is the soak-style
// conservation invariant: under heavy load with a tight admission bound,
// every arrival is either admitted (exactly one responder, completed
// before the end of the run) or shed — never lost, never duplicated —
// and the pool drains completely after the last arrival.
func TestNoLostNoDuplicateUnderBackpressureAndDrain(t *testing.T) {
	t.Parallel()
	const n = 400
	rep := Simulate(Config{
		OCEs: 3, ArrivalsPerHour: 12, Incidents: n, Seed: 11, QueueLimit: 5,
		Workers: 8,
		Runner:  &fixedRunner{ttm: 45 * time.Minute},
		Mix:     []scenarios.Scenario{&fixedScenario{name: "flat", sev: 1}},
	})
	if len(rep.Outcomes) != n {
		t.Fatalf("outcomes = %d, want %d", len(rep.Outcomes), n)
	}
	seen := map[int]bool{}
	var lastArrival, lastEnd time.Duration
	for _, o := range rep.Outcomes {
		if seen[o.Index] {
			t.Fatalf("arrival %d recorded twice", o.Index)
		}
		seen[o.Index] = true
		if o.ArrivedAt > lastArrival {
			lastArrival = o.ArrivedAt
		}
		if !o.Shed {
			if o.Responder < 0 || o.Responder >= 3 {
				t.Fatalf("admitted arrival %d has responder %d", o.Index, o.Responder)
			}
			if end := o.StartedAt + o.Handling; end > lastEnd {
				lastEnd = end
			}
		}
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			t.Fatalf("arrival %d lost", i)
		}
	}
	if rep.Admitted+rep.Shed != n {
		t.Fatalf("admitted %d + shed %d != %d", rep.Admitted, rep.Shed, n)
	}
	if rep.Shed == 0 {
		t.Fatal("backpressure test shed nothing; load not saturating")
	}
	if rep.Drain != lastEnd-lastArrival {
		t.Fatalf("drain %v != last completion %v - last arrival %v", rep.Drain, lastEnd, lastArrival)
	}
}

// TestShedRateMonotoneInOfferedLoad: admission-control shedding must be
// weakly monotone in offered load over the same pool and bound.
func TestShedRateMonotoneInOfferedLoad(t *testing.T) {
	t.Parallel()
	prev := -1.0
	for _, rate := range []float64{0.5, 2, 4, 8, 16} {
		rep := Simulate(Config{
			OCEs: 2, ArrivalsPerHour: rate, Incidents: 200, Seed: 5, QueueLimit: 4,
			Runner: &fixedRunner{ttm: 60 * time.Minute},
			Mix:    []scenarios.Scenario{&fixedScenario{name: "flat", sev: 1}},
		})
		if rep.ShedRate < prev {
			t.Fatalf("shed rate fell from %v to %v at rate %v/h", prev, rep.ShedRate, rate)
		}
		prev = rep.ShedRate
	}
	if prev == 0 {
		t.Fatal("ladder never shed; bound not exercised")
	}
}

// TestSeverityPriorityAndAging: under pure severity priority, severe
// incidents wait less than routine ones on the same saturated pool; with
// aging enabled, the routine class's worst-case wait shrinks (aged
// incidents eventually outrank fresh severe ones), preventing
// starvation.
func TestSeverityPriorityAndAging(t *testing.T) {
	t.Parallel()
	mix := []scenarios.Scenario{
		&fixedScenario{name: "routine", sev: 0},
		&fixedScenario{name: "severe", sev: 3},
	}
	run := func(aging time.Duration) *Report {
		return Simulate(Config{
			OCEs: 2, ArrivalsPerHour: 4, Incidents: 300, Seed: 9,
			AgingStep: aging,
			Runner:    &fixedRunner{ttm: 50 * time.Minute},
			Mix:       mix,
		})
	}
	queueStats := func(rep *Report) (sevMean, routMean, routMax time.Duration) {
		var sevSum, routSum time.Duration
		var sevN, routN int
		for _, o := range rep.Outcomes {
			if o.Severity == 3 {
				sevSum += o.Queue
				sevN++
			} else {
				routSum += o.Queue
				routN++
				if o.Queue > routMax {
					routMax = o.Queue
				}
			}
		}
		return sevSum / time.Duration(sevN), routSum / time.Duration(routN), routMax
	}

	pure := run(-1) // severity only, no aging
	sevMean, routMean, pureMax := queueStats(pure)
	if sevMean >= routMean {
		t.Fatalf("severity priority inverted: sev3 mean queue %v >= sev0 %v", sevMean, routMean)
	}
	aged := run(20 * time.Minute)
	_, _, agedMax := queueStats(aged)
	if agedMax >= pureMax {
		t.Fatalf("aging did not cap starvation: worst sev0 wait %v (aged) >= %v (pure severity)", agedMax, pureMax)
	}
}

// renderAll flattens a report plus its observability exports into one
// comparable byte string.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	sink := obs.NewLogSink()
	rep := Simulate(Config{
		OCEs: 2, ArrivalsPerHour: 5, Incidents: 30, Seed: 21, QueueLimit: 3,
		Workers: workers,
		Runner:  &harness.HelperRunner{KBase: currentKB(), Config: core.DefaultConfig()},
		Obs:     sink,
	})
	var b strings.Builder
	for _, o := range rep.Outcomes {
		fmt.Fprintf(&b, "%d %s sev%d shed=%v arr=%v start=%v q=%v h=%v res=%v resp=%d\n",
			o.Index, o.Scenario, o.Severity, o.Shed, o.ArrivedAt, o.StartedAt, o.Queue, o.Handling, o.Resolution, o.Responder)
	}
	fmt.Fprintf(&b, "%+v\n", Report{
		Admitted: rep.Admitted, Shed: rep.Shed, MeanQueue: rep.MeanQueue, P95Queue: rep.P95Queue,
		MeanResolution: rep.MeanResolution, P50Resolution: rep.P50Resolution,
		P95Resolution: rep.P95Resolution, P99Resolution: rep.P99Resolution,
		Utilization: rep.Utilization, MitigatedRate: rep.MitigatedRate, ShedRate: rep.ShedRate,
		PeakQueueDepth: rep.PeakQueueDepth, Drain: rep.Drain,
	})
	var ev, m bytes.Buffer
	if err := sink.WriteEvents(&ev); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	b.Write(ev.Bytes())
	b.Write(m.Bytes())
	return b.String()
}

// TestWorkerByteIdentity is the satellite audit: with sessions executing
// concurrently, arrival order, scenario builds, severities, OCE
// assignment, every outcome field, the event log and the metrics dump
// must be byte-identical between workers=1 and workers=8.
func TestWorkerByteIdentity(t *testing.T) {
	t.Parallel()
	one := renderAll(t, 1)
	eight := renderAll(t, 8)
	if one != eight {
		t.Fatalf("fleet output diverges between workers=1 and workers=8:\n--- w1 ---\n%.2000s\n--- w8 ---\n%.2000s", one, eight)
	}
	if !strings.Contains(one, "fleet-incident") {
		t.Fatal("no fleet events captured")
	}
}

// TestFIFOMatchesLegacySemantics: with the legacy discipline the k-th
// arrival starts at max(arrival, k-th free slot) — queue waits are FIFO
// and never reorder across arrivals.
func TestFIFOMatchesLegacySemantics(t *testing.T) {
	t.Parallel()
	rep := Simulate(Config{
		OCEs: 2, ArrivalsPerHour: 6, Incidents: 80, Seed: 3, Policy: FIFO,
		Runner: &fixedRunner{ttm: 40 * time.Minute},
		Mix:    []scenarios.Scenario{&fixedScenario{name: "flat", sev: 2}},
	})
	for i := 1; i < len(rep.Outcomes); i++ {
		if rep.Outcomes[i].StartedAt < rep.Outcomes[i-1].StartedAt {
			t.Fatalf("FIFO reordered: arrival %d started %v before arrival %d at %v",
				i, rep.Outcomes[i].StartedAt, i-1, rep.Outcomes[i-1].StartedAt)
		}
	}
	if rep.Shed != 0 {
		t.Fatal("unbounded legacy mode shed incidents")
	}
}

// The tests below run the classic first-free model of experiment E10
// and the aiops facade: FIFO dispatch over an unbounded queue.

func fifoConfig(oces int, rate float64, n int, seed int64, r harness.Runner) Config {
	return Config{OCEs: oces, ArrivalsPerHour: rate, Incidents: n, Seed: seed, Runner: r, Policy: FIFO}
}

func TestSimulateBasics(t *testing.T) {
	t.Parallel()
	rep := Simulate(fifoConfig(3, 2, 40, 1,
		&harness.HelperRunner{KBase: currentKB(), Config: core.DefaultConfig()}))
	if len(rep.Outcomes) != 40 || rep.Shed != 0 {
		t.Fatalf("outcomes = %d, shed = %d", len(rep.Outcomes), rep.Shed)
	}
	for _, o := range rep.Outcomes {
		if o.StartedAt < o.ArrivedAt {
			t.Fatal("incident started before it arrived")
		}
		if o.Queue != o.StartedAt-o.ArrivedAt {
			t.Fatal("queue accounting inconsistent")
		}
		if o.Resolution < o.Queue {
			t.Fatal("resolution < queue")
		}
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Fatalf("utilization = %v", rep.Utilization)
	}
	if rep.MitigatedRate < 0.9 {
		t.Fatalf("helper fleet mitigated only %v", rep.MitigatedRate)
	}
	if rep.P95Resolution < rep.MeanResolution/2 {
		t.Fatal("percentile plumbing broken")
	}
}

// TestQueueingGrowsWithLoad: the same pool under higher arrival rates
// must show higher utilization and queueing.
func TestQueueingGrowsWithLoad(t *testing.T) {
	t.Parallel()
	runner := &harness.ControlRunner{KBase: currentKB()}
	low := Simulate(fifoConfig(2, 0.5, 60, 2, runner))
	high := Simulate(fifoConfig(2, 6, 60, 2, runner))
	if high.MeanQueue <= low.MeanQueue {
		t.Errorf("queueing did not grow with load: %v vs %v", high.MeanQueue, low.MeanQueue)
	}
	if high.Utilization <= low.Utilization {
		t.Errorf("utilization did not grow with load: %v vs %v", high.Utilization, low.Utilization)
	}
}

// TestHelperFleetSurvivesLoadControlDrowns is the fleet-level headline:
// at an arrival rate where the unassisted pool saturates, the
// helper-assisted pool keeps customer-visible resolution time bounded.
func TestHelperFleetSurvivesLoadControlDrowns(t *testing.T) {
	t.Parallel()
	kbase := currentKB()
	assisted := Simulate(fifoConfig(2, 4, 80, 3,
		&harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig()}))
	control := Simulate(fifoConfig(2, 4, 80, 3, &harness.ControlRunner{KBase: kbase}))
	if assisted.MeanResolution >= control.MeanResolution {
		t.Fatalf("assisted fleet not faster: %v vs %v", assisted.MeanResolution, control.MeanResolution)
	}
	// The gap must exceed the per-incident TTM gap: queueing amplifies.
	if control.MeanQueue < assisted.MeanQueue*2 {
		t.Errorf("expected queue amplification: control %v vs assisted %v",
			control.MeanQueue, assisted.MeanQueue)
	}
}

func TestSimulateDefaultsAndDeterminism(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Runner: &harness.ControlRunner{KBase: currentKB()}, Seed: 4, Incidents: 20, Policy: FIFO,
		Mix: []scenarios.Scenario{&scenarios.GrayLink{}},
	}
	a, b := Simulate(cfg), Simulate(cfg)
	if a.MeanResolution != b.MeanResolution || a.MeanQueue != b.MeanQueue {
		t.Fatal("fleet simulation not deterministic")
	}
	if a.Outcomes[0].Scenario != "gray-link" {
		t.Fatal("mix not honored")
	}
	if a.Outcomes[0].Region != DefaultRegion {
		t.Fatalf("single-cell outcome homed in %q", a.Outcomes[0].Region)
	}
}
