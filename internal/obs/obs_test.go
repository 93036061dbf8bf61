package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilObserverEmitIsNoOp(t *testing.T) {
	t.Parallel()
	Emit(nil, Event{Type: EvLLMCall}) // must not panic
	if o := WithRunner(nil, "helper"); o != nil {
		t.Fatalf("WithRunner(nil) = %v, want nil", o)
	}
}

func TestRecorderStampsSessionAndRunner(t *testing.T) {
	t.Parallel()
	rec := NewRecorder("trial-7")
	o := WithRunner(rec, "iterative-helper")
	o.Emit(Event{Type: EvToolCall, Tool: "pingmesh"})
	o.Emit(Event{Type: EvToolCall, Tool: "syslog", Runner: "other", Session: "s2"})
	if rec.Events[0].Session != "trial-7" || rec.Events[0].Runner != "iterative-helper" {
		t.Fatalf("stamp missing: %+v", rec.Events[0])
	}
	if rec.Events[1].Runner != "other" || rec.Events[1].Session != "s2" {
		t.Fatalf("explicit labels overwritten: %+v", rec.Events[1])
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	t.Parallel()
	in := []Event{
		{Seq: 1, Session: "ab/0001", At: 3 * time.Minute, Round: 2, Type: EvHypothesis, Hypothesis: "link_congested", Confidence: 0.7},
		{Seq: 2, Session: "ab/0001", At: 5 * time.Minute, Type: EvToolCall, Tool: "pingmesh", Disposition: "ok", Latency: 90 * time.Second},
		{Seq: 3, At: 8 * time.Minute, Type: EvSessionEnd, Runner: "iterative-helper", Outcome: &SessionOutcome{Mitigated: true, TTMMinutes: 8, Rounds: 2, CostUSD: 0.25}},
	}
	var buf bytes.Buffer
	if err := WriteEventLog(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
}

func TestSinkAbsorbAssignsGlobalSeq(t *testing.T) {
	t.Parallel()
	s := NewLogSink()
	a := NewRecorder("t0")
	a.Emit(Event{Type: EvHypothesis})
	a.Emit(Event{Type: EvHypothesisTested, Verdict: "supported"})
	b := NewRecorder("t1")
	b.Emit(Event{Type: EvHypothesis})
	s.Absorb(a)
	s.Absorb(b)
	ev := s.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	for i, e := range ev {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if ev[2].Session != "t1" {
		t.Fatalf("absorb order broken: %+v", ev[2])
	}
}

func TestRegistryMergeMatchesDirect(t *testing.T) {
	t.Parallel()
	events := []Event{
		{Type: EvToolCall, Tool: "pingmesh", Disposition: "ok", Latency: time.Minute},
		{Type: EvToolCall, Tool: "pingmesh", Disposition: "error", Latency: 2 * time.Minute},
		{Type: EvLLMCall, Runner: "h", PromptTokens: 100, CompletionTokens: 20, Latency: 30 * time.Second},
		{Type: EvSessionEnd, Runner: "h", Outcome: &SessionOutcome{Mitigated: true, TTMMinutes: 42, Rounds: 3, Wrong: 1, CostUSD: 0.5}},
	}
	direct := NewAIOpsRegistry()
	for _, e := range events {
		Collect(direct, e)
	}
	// Split across two registries and merge.
	r1, r2 := NewAIOpsRegistry(), NewAIOpsRegistry()
	for i, e := range events {
		if i%2 == 0 {
			Collect(r1, e)
		} else {
			Collect(r2, e)
		}
	}
	r1.Merge(r2)
	var a, b strings.Builder
	if err := direct.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r1.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged export differs from direct export:\n%s\nvs\n%s", a.String(), b.String())
	}
	if got := direct.CounterValue(MToolCalls, Labels{"tool": "pingmesh", "disposition": "ok"}); got != 1 {
		t.Fatalf("tool ok counter = %v", got)
	}
	if got := direct.HistogramCount(MTTM, Labels{"runner": "h"}); got != 1 {
		t.Fatalf("ttm histogram count = %v", got)
	}
}

func TestPrometheusExportShape(t *testing.T) {
	t.Parallel()
	r := NewAIOpsRegistry()
	Collect(r, Event{Type: EvToolCall, Tool: "syslog", Disposition: "ok", Latency: time.Minute})
	r.Set(MFleetUtil, nil, 0.75)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE aiops_tool_invocations_total counter",
		`aiops_tool_invocations_total{disposition="ok",tool="syslog"} 1`,
		`aiops_tool_latency_minutes_bucket{tool="syslog",le="1"} 1`,
		`aiops_tool_latency_minutes_bucket{tool="syslog",le="+Inf"} 1`,
		`aiops_tool_latency_minutes_count{tool="syslog"} 1`,
		"# TYPE aiops_fleet_utilization gauge",
		"aiops_fleet_utilization 0.75",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
	// Undeclared families with no series must not appear.
	if strings.Contains(out, MQuarantined) {
		t.Errorf("empty family exported:\n%s", out)
	}
}

func TestReleaseZeroesPooledSlots(t *testing.T) {
	t.Parallel()
	r := NewRecorder("t0")
	for i := 0; i < 5; i++ {
		r.Emit(Event{Type: EvSessionEnd, Detail: "line", Outcome: &SessionOutcome{Mitigated: true}})
	}
	r.Release()
	for i, e := range r.Events[:cap(r.Events)] {
		if !reflect.DeepEqual(e, Event{}) {
			t.Fatalf("slot %d past len still holds %+v", i, e)
		}
	}
}

func TestSinkKeepsLogOnlyWhenAsked(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		sink *Sink
		want int
	}{{NewSink(), 0}, {NewLogSink(), 3}} {
		rec := NewRecorder("t0")
		for i := 0; i < 3; i++ {
			rec.Emit(Event{Type: EvToolCall, Tool: "pingmesh", Disposition: "ok"})
		}
		tc.sink.Absorb(rec)
		var buf bytes.Buffer
		if err := tc.sink.WriteEvents(&buf); err != nil {
			t.Fatal(err)
		}
		if got := len(tc.sink.Events()); got != tc.want {
			t.Fatalf("KeepsLog=%v: %d events retained, want %d", tc.sink.KeepsLog(), got, tc.want)
		}
		if lines := strings.Count(buf.String(), "\n"); lines != tc.want {
			t.Fatalf("KeepsLog=%v: WriteEvents wrote %d lines, want %d", tc.sink.KeepsLog(), lines, tc.want)
		}
		if got := tc.sink.Registry().CounterValue(MToolCalls, Labels{"tool": "pingmesh", "disposition": "ok"}); got != 3 {
			t.Fatalf("KeepsLog=%v: registry counted %v tool calls, want 3", tc.sink.KeepsLog(), got)
		}
	}
}

// A subscriber sees every event emitted or absorbed after it subscribed,
// sequenced, in seq order, and nothing after it cancels.
func TestSinkSubscribePushesInSeqOrder(t *testing.T) {
	t.Parallel()
	s := NewSink()
	s.Emit(Event{Type: EvHypothesis}) // before the subscriber: not seen
	ch, cancel := s.Subscribe()
	rec := NewRecorder("t0")
	rec.Emit(Event{Type: EvHypothesis})
	rec.Emit(Event{Type: EvHypothesisTested, Verdict: "supported"})
	s.Absorb(rec)
	cell := NewLogSink()
	cell.Emit(Event{Type: EvMitigation, Action: "drain(l1)"})
	s.AbsorbSink(cell)
	cancel()
	s.Emit(Event{Type: EvHypothesis}) // after cancel: not seen
	var got []Event
	for len(ch) > 0 {
		got = append(got, <-ch)
	}
	want := []Event{
		{Seq: 2, Session: "t0", Type: EvHypothesis},
		{Seq: 3, Session: "t0", Type: EvHypothesisTested, Verdict: "supported"},
		{Seq: 4, Type: EvMitigation, Action: "drain(l1)"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriber got\n%+v\nwant\n%+v", got, want)
	}
}

// A subscriber that falls subscriberBuffer events behind misses the
// rest; Emit never blocks on it.
func TestSinkSlowSubscriberDrops(t *testing.T) {
	t.Parallel()
	s := NewSink()
	ch, cancel := s.Subscribe()
	defer cancel()
	for i := 0; i < subscriberBuffer+10; i++ {
		s.Emit(Event{Type: EvHypothesis})
	}
	if len(ch) != subscriberBuffer {
		t.Fatalf("subscriber holds %d events, want the %d-event bound", len(ch), subscriberBuffer)
	}
	if first := <-ch; first.Seq != 1 {
		t.Fatalf("first buffered event has seq %d, want 1", first.Seq)
	}
}

// AbsorbSink of a sink that kept no log still advances the counter, so
// later events carry the same seq whether or not the cell kept a log.
func TestAbsorbSinkWithoutLogAdvancesSeq(t *testing.T) {
	t.Parallel()
	for _, cell := range []*Sink{NewSink(), NewLogSink()} {
		s := NewLogSink()
		cell.Emit(Event{Type: EvHypothesis})
		cell.Emit(Event{Type: EvHypothesis})
		s.AbsorbSink(cell)
		s.Emit(Event{Type: EvMitigation})
		ev := s.Events()
		if last := ev[len(ev)-1]; last.Seq != 3 {
			t.Fatalf("cell KeepsLog=%v: next event has seq %d, want 3", cell.KeepsLog(), last.Seq)
		}
	}
}

// Emit on a sink with no log and no subscriber costs what Collect
// costs: the event is sequenced and counted, never copied anywhere.
func TestNoLogEmitAllocatesLikeCollect(t *testing.T) {
	e := Event{Type: EvToolCall, Tool: "pingmesh", Disposition: "ok", Latency: time.Minute}
	reg := NewAIOpsRegistry()
	Collect(reg, e)
	collect := testing.AllocsPerRun(200, func() { Collect(reg, e) })
	s := NewSink()
	s.Emit(e)
	emit := testing.AllocsPerRun(200, func() { s.Emit(e) })
	if emit > collect {
		t.Fatalf("Emit allocates %.1f per event, Collect alone %.1f", emit, collect)
	}
}
