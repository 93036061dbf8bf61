package core

// Tool-error propagation and resilience-path coverage for the session:
// how failures, degraded evidence and broken automation move through
// testHypothesis/invokeTool, and that every fumble, retry and backoff is
// charged to the simulated clock (and therefore to TTM).

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/scenarios"
	"repro/internal/tools"
)

// scriptedModel answers each TASK with a fixed reply at zero latency, so
// clock deltas in these tests are pure tool/backoff arithmetic.
type scriptedModel struct {
	replies map[string]string // TASK name -> response content
}

func (m *scriptedModel) Name() string       { return "scripted" }
func (m *scriptedModel) ContextWindow() int { return 1 << 20 }
func (m *scriptedModel) Complete(req llm.Request) (llm.Response, error) {
	text := req.Text()
	for task, content := range m.replies {
		if strings.HasPrefix(text, "TASK: "+task+"\n") {
			return llm.Response{Content: content}, nil
		}
	}
	first, _, _ := strings.Cut(text, "\n")
	return llm.Response{}, fmt.Errorf("scripted model has no reply for %q", first)
}

// stubTool fails its first failN invocations, then returns res.
type stubTool struct {
	name    string
	latency time.Duration
	failN   int
	calls   int
	res     tools.Result
}

func (f *stubTool) Name() string           { return f.name }
func (f *stubTool) Description() string    { return "stub tool for session fault tests" }
func (f *stubTool) Risk() tools.RiskClass  { return tools.RiskReadOnly }
func (f *stubTool) Latency() time.Duration { return f.latency }
func (f *stubTool) Invoke(w *netsim.World, args map[string]string) (tools.Result, error) {
	f.calls++
	if f.calls <= f.failN {
		return tools.Result{}, errors.New("monitor unavailable")
	}
	r := f.res
	r.Findings = append([]string(nil), f.res.Findings...)
	return r, nil
}

// newFaultSession assembles a session directly (as Run does) so tests
// can drive testHypothesis without a full investigation loop.
func newFaultSession(m llm.Model, reg *tools.Registry, cfg Config) *session {
	in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(11)))
	cfg = cfg.withDefaults()
	h := &Helper{Model: m, Tools: reg, Config: cfg}
	s := &session{
		h: h, w: in.World, inc: in.Incident,
		oce:       NewOCE(1.0, kb.Default(), rand.New(rand.NewSource(12))),
		cfg:       cfg,
		attempted: map[string]bool{},
		breaker:   map[string]*breakerState{},
		out:       &Outcome{},
	}
	s.ctx = llm.PromptContext{Bindings: map[string]string{}}
	return s
}

func planVia(tool string) map[string]string {
	return map[string]string{
		llm.TaskPlanTest:      "TEST: tool=" + tool + " reason=check the counters\n",
		llm.TaskInterpretTest: "VERDICT: supported=true confidence=0.9 reason=seen\n",
	}
}

func evidenceContains(s *session, substr string) bool {
	for _, e := range s.ctx.Evidence {
		if strings.Contains(e, substr) {
			return true
		}
	}
	return false
}

// TestToolErrorPropagatesNaive: without resilience a failing tool costs
// exactly one invocation latency, lands in the evidence stream, and
// yields testNoTest (the hypothesis is set aside).
func TestToolErrorPropagatesNaive(t *testing.T) {
	t.Parallel()
	ft := &stubTool{name: "ft", latency: time.Minute, failN: 1 << 30}
	reg := tools.NewRegistry()
	if err := reg.Register("test", ft); err != nil {
		t.Fatal(err)
	}
	s := newFaultSession(&scriptedModel{replies: planVia("ft")}, reg, Config{})
	before := s.w.Clock.Now()
	if got := s.testHypothesis(llm.Hypothesis{Concept: kb.CPacketLoss}); got != testNoTest {
		t.Fatalf("verdict = %v, want testNoTest", got)
	}
	if d := s.w.Clock.Now() - before; d != ft.latency {
		t.Errorf("naive failure charged %v, want exactly one tool latency %v", d, ft.latency)
	}
	if s.out.ToolCalls != 1 || s.out.ToolRetries != 0 {
		t.Errorf("calls=%d retries=%d, want 1/0", s.out.ToolCalls, s.out.ToolRetries)
	}
	if !evidenceContains(s, "tool ft failed") {
		t.Errorf("tool failure missing from evidence: %v", s.ctx.Evidence)
	}
}

// TestFumbleLatencyChargedToTTM: a hallucinated tool costs the OCE
// fumbleLatency on the clock even though nothing is invoked.
func TestFumbleLatencyChargedToTTM(t *testing.T) {
	t.Parallel()
	s := newFaultSession(&scriptedModel{replies: planVia("ghost")}, tools.NewRegistry(), Config{})
	before := s.w.Clock.Now()
	if got := s.testHypothesis(llm.Hypothesis{Concept: kb.CPacketLoss}); got != testNoTest {
		t.Fatalf("verdict = %v, want testNoTest", got)
	}
	if d := s.w.Clock.Now() - before; d != fumbleLatency {
		t.Errorf("fumble charged %v, want %v", d, fumbleLatency)
	}
	if s.out.ToolCalls != 0 {
		t.Errorf("fumble invoked %d tools", s.out.ToolCalls)
	}
	if !evidenceContains(s, "does not exist") {
		t.Errorf("fumble missing from evidence: %v", s.ctx.Evidence)
	}
}

// TestResilientRetriesChargeBackoffAndTripBreaker: a dead tool is
// retried MaxRetries times with capped exponential backoff — every
// attempt and wait on the simulated clock — then the breaker opens and
// the test is rerouted to the monitor cross-check, inconclusively.
func TestResilientRetriesChargeBackoffAndTripBreaker(t *testing.T) {
	t.Parallel()
	ft := &stubTool{name: "ft", latency: time.Minute, failN: 1 << 30}
	cc := &stubTool{name: kb.ToolMonitorCheck, latency: 30 * time.Second,
		res: tools.Result{Findings: []string{"monitor ft unhealthy: heartbeat missing"}}}
	reg := tools.NewRegistry()
	for _, tl := range []tools.Tool{ft, cc} {
		if err := reg.Register("test", tl); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Resilience: DefaultResilience()}
	s := newFaultSession(&scriptedModel{replies: planVia("ft")}, reg, cfg)
	before := s.w.Clock.Now()
	if got := s.testHypothesis(llm.Hypothesis{Concept: kb.CPacketLoss}); got != testInconclusive {
		t.Fatalf("verdict = %v, want testInconclusive (rerouted)", got)
	}
	// 3 attempts at 1m each + 30s and 60s backoff + 30s cross-check.
	want := 3*time.Minute + 30*time.Second + time.Minute + 30*time.Second
	if d := s.w.Clock.Now() - before; d != want {
		t.Errorf("resilient failure charged %v, want %v", d, want)
	}
	if s.out.ToolRetries != 2 {
		t.Errorf("ToolRetries = %d, want 2", s.out.ToolRetries)
	}
	if s.out.BreakerTrips != 1 || !s.breakerOpen("ft") {
		t.Errorf("breaker trips=%d open=%v, want 1/true", s.out.BreakerTrips, s.breakerOpen("ft"))
	}
	if s.out.Rerouted != 1 || cc.calls != 1 {
		t.Errorf("rerouted=%d crosscheck calls=%d, want 1/1", s.out.Rerouted, cc.calls)
	}
	if s.out.ToolCalls != 4 { // 3 failed attempts + 1 cross-check
		t.Errorf("ToolCalls = %d, want 4", s.out.ToolCalls)
	}
	if !evidenceContains(s, "monitor ft unhealthy") {
		t.Errorf("cross-check findings missing from evidence: %v", s.ctx.Evidence)
	}
}

// TestResilientRecoversFromFlakyTool: one transient failure costs one
// backoff and one extra invocation, then the verdict lands normally and
// the breaker's failure count resets.
func TestResilientRecoversFromFlakyTool(t *testing.T) {
	t.Parallel()
	ft := &stubTool{name: "ft", latency: time.Minute, failN: 1,
		res: tools.Result{Findings: []string{kb.CPacketLoss + "=true link=x"}}}
	reg := tools.NewRegistry()
	if err := reg.Register("test", ft); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Resilience: DefaultResilience()}
	s := newFaultSession(&scriptedModel{replies: planVia("ft")}, reg, cfg)
	before := s.w.Clock.Now()
	if got := s.testHypothesis(llm.Hypothesis{Concept: kb.CPacketLoss}); got != testSupported {
		t.Fatalf("verdict = %v, want testSupported", got)
	}
	want := 2*time.Minute + 30*time.Second
	if d := s.w.Clock.Now() - before; d != want {
		t.Errorf("flaky recovery charged %v, want %v", d, want)
	}
	if s.out.ToolRetries != 1 || s.out.BreakerTrips != 0 {
		t.Errorf("retries=%d trips=%d, want 1/0", s.out.ToolRetries, s.out.BreakerTrips)
	}
	if b := s.breaker["ft"]; b == nil || b.consecutiveFails != 0 {
		t.Errorf("success did not reset the breaker: %+v", b)
	}
}

// TestQuarantineDegradedEvidence: a degraded result is recorded with a
// trust label but produces no verdict under the resilient config; the
// naive config trusts it as-is.
func TestQuarantineDegradedEvidence(t *testing.T) {
	t.Parallel()
	build := func(cfg Config) (*session, *stubTool) {
		ft := &stubTool{name: "ft", latency: time.Minute,
			res: tools.Result{Findings: []string{kb.CPacketLoss + "=true link=x"}, Degraded: true, Source: "stale"}}
		reg := tools.NewRegistry()
		if err := reg.Register("test", ft); err != nil {
			t.Fatal(err)
		}
		return newFaultSession(&scriptedModel{replies: planVia("ft")}, reg, cfg), ft
	}

	s, _ := build(Config{Resilience: DefaultResilience()})
	if got := s.testHypothesis(llm.Hypothesis{Concept: kb.CPacketLoss}); got != testInconclusive {
		t.Fatalf("resilient verdict = %v, want testInconclusive", got)
	}
	if s.out.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", s.out.Quarantined)
	}
	if !evidenceContains(s, "[degraded:stale] ft:") {
		t.Errorf("quarantined evidence missing trust label: %v", s.ctx.Evidence)
	}

	n, _ := build(Config{})
	if got := n.testHypothesis(llm.Hypothesis{Concept: kb.CPacketLoss}); got != testSupported {
		t.Fatalf("naive verdict = %v, want testSupported (trusts degraded output)", got)
	}
	if n.out.Quarantined != 0 {
		t.Errorf("naive session quarantined %d results", n.out.Quarantined)
	}
}

// TestOpenBreakerSkipsToolEntirely: with the breaker already open the
// session must not burn another deadline on the broken tool — it goes
// straight to the cross-check.
func TestOpenBreakerSkipsToolEntirely(t *testing.T) {
	t.Parallel()
	ft := &stubTool{name: "ft", latency: time.Minute}
	cc := &stubTool{name: kb.ToolMonitorCheck, latency: 30 * time.Second,
		res: tools.Result{Findings: []string{"monitor ft unhealthy"}}}
	reg := tools.NewRegistry()
	for _, tl := range []tools.Tool{ft, cc} {
		if err := reg.Register("test", tl); err != nil {
			t.Fatal(err)
		}
	}
	s := newFaultSession(&scriptedModel{replies: planVia("ft")}, reg, Config{Resilience: DefaultResilience()})
	s.breaker["ft"] = &breakerState{openUntil: s.w.Clock.Now() + time.Hour}
	if got := s.testHypothesis(llm.Hypothesis{Concept: kb.CPacketLoss}); got != testInconclusive {
		t.Fatalf("verdict = %v, want testInconclusive", got)
	}
	if ft.calls != 0 {
		t.Errorf("open breaker still invoked the broken tool %d times", ft.calls)
	}
	if s.out.Rerouted != 1 || cc.calls != 1 {
		t.Errorf("rerouted=%d crosscheck calls=%d, want 1/1", s.out.Rerouted, cc.calls)
	}
}

// failingAutomation fails every substantive mitigation action; paging
// humans (Escalate) and NoOp always work.
type failingAutomation struct{}

func (failingAutomation) ActionError(a mitigation.Action) error {
	if a.Kind == mitigation.Escalate || a.Kind == mitigation.NoOp {
		return nil
	}
	return errors.New("change automation down")
}

// TestActionFaultsForceEscalation: when mitigation automation is broken
// the session must not report a clean mitigation — it records the plan
// errors and escalates, with the wasted time in TTM.
func TestActionFaultsForceEscalation(t *testing.T) {
	t.Parallel()
	kbase := kb.Default()
	in := (&scenarios.GrayLink{}).Build(rand.New(rand.NewSource(3)))
	h, oce := buildHelper(in, kbase, 3, DefaultConfig())
	h.ActionFaults = failingAutomation{}
	out := h.Run(in.World, in.Incident, oce)
	if out.Mitigated {
		t.Fatalf("mitigated with all automation down; trace:\n%s", NewSessionTrace(out).String())
	}
	if !out.Escalated {
		t.Fatalf("expected escalation; trace:\n%s", NewSessionTrace(out).String())
	}
	if out.PlanErrors == 0 {
		t.Errorf("no plan errors recorded; trace:\n%s", NewSessionTrace(out).String())
	}
	if out.TTM <= 0 {
		t.Error("TTM not accounted for the failed attempts")
	}
}

func TestBackoffSchedule(t *testing.T) {
	t.Parallel()
	r := DefaultResilience()
	for i, want := range []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 4 * time.Minute, 4 * time.Minute} {
		if got := r.backoff(i); got != want {
			t.Errorf("backoff(%d) = %v, want %v", i, got, want)
		}
	}
	if (ResilienceConfig{}).Enabled() {
		t.Error("zero resilience config reports enabled")
	}
	if !DefaultResilience().Enabled() {
		t.Error("default resilience config reports disabled")
	}
}
