package faults

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/tools"
)

// fakeTool is a minimal deterministic tool for exercising the wrapper.
type fakeTool struct {
	name     string
	latency  time.Duration
	findings []string
	bindings map[string]string
	err      error
}

func (f *fakeTool) Name() string           { return f.name }
func (f *fakeTool) Description() string    { return "fake tool for fault tests" }
func (f *fakeTool) Risk() tools.RiskClass  { return tools.RiskReadOnly }
func (f *fakeTool) Latency() time.Duration { return f.latency }
func (f *fakeTool) Invoke(w *netsim.World, args map[string]string) (tools.Result, error) {
	if f.err != nil {
		return tools.Result{}, f.err
	}
	return tools.Result{
		Findings: append([]string(nil), f.findings...),
		Bindings: f.bindings,
		Raw:      "fake output",
	}, nil
}

func testWorld() *netsim.World {
	return netsim.NewWorld(netsim.NewNetwork(), nil, nil)
}

// forceClass builds a rate-1 config whose weight mass sits entirely on
// one class, so every invocation injects exactly that fault.
func forceClass(c Class) Config {
	cfg := Config{Rate: 1, MaxRate: 1, Seed: 7}
	switch c {
	case Transient:
		cfg.Weights = Weights{Transient: 1}
	case Timeout:
		cfg.Weights = Weights{Timeout: 1}
	case Stale:
		cfg.Weights = Weights{Stale: 1}
	case Corrupt:
		cfg.Weights = Weights{Corrupt: 1}
	}
	return cfg
}

func TestScheduleDeterministicAcrossInjectors(t *testing.T) {
	t.Parallel()
	cfg := Config{Rate: 0.3, Seed: 42, Degrade: 0.5}
	a := NewInjector(cfg, 1001)
	b := NewInjector(cfg, 1001)
	other := NewInjector(cfg, 1002)
	differs := false
	for _, tool := range []string{"pingmesh", "syslog", "counters"} {
		for idx := 0; idx < 200; idx++ {
			now := time.Duration(idx) * time.Minute
			ca, cb := a.ClassAt(tool, idx, now), b.ClassAt(tool, idx, now)
			if ca != cb {
				t.Fatalf("schedule not deterministic: %s[%d] = %v vs %v", tool, idx, ca, cb)
			}
			if ca != other.ClassAt(tool, idx, now) {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("distinct trial seeds produced identical 600-call schedules")
	}
}

func TestRateZeroInjectsNothing(t *testing.T) {
	t.Parallel()
	inj := NewInjector(Config{Rate: 0, Seed: 9}, 5)
	for idx := 0; idx < 500; idx++ {
		if c := inj.ClassAt("anytool", idx, time.Hour); c != None {
			t.Fatalf("rate 0 injected %v at index %d", c, idx)
		}
	}
}

func TestWrapDisabledReturnsSameRegistry(t *testing.T) {
	t.Parallel()
	reg := tools.NewRegistry()
	if err := reg.Register("netinfra", &fakeTool{name: "x"}); err != nil {
		t.Fatal(err)
	}
	if got := Wrap(reg, nil); got != reg {
		t.Fatal("nil injector must return the registry unchanged")
	}
	if got := Wrap(reg, NewInjector(Config{}, 1)); got != reg {
		t.Fatal("disabled config must return the registry unchanged")
	}
}

func TestWrapPreservesOwnershipAndMetadata(t *testing.T) {
	t.Parallel()
	reg := tools.NewRegistry()
	ft := &fakeTool{name: "pingmesh", latency: 3 * time.Minute}
	if err := reg.Register("netinfra", ft); err != nil {
		t.Fatal(err)
	}
	wrapped := Wrap(reg, NewInjector(Config{Rate: 0.5}, 1))
	if wrapped == reg {
		t.Fatal("enabled config should produce a new registry")
	}
	if wrapped.Owner("pingmesh") != "netinfra" {
		t.Fatalf("ownership lost: %q", wrapped.Owner("pingmesh"))
	}
	got, ok := wrapped.Get("pingmesh")
	if !ok {
		t.Fatal("wrapped tool missing")
	}
	if got.Name() != ft.Name() || got.Latency() != ft.Latency() || got.Risk() != ft.Risk() {
		t.Fatal("wrapper must preserve name, latency and risk class")
	}
}

func TestTransientFaultReturnsError(t *testing.T) {
	t.Parallel()
	inj := NewInjector(forceClass(Transient), 3)
	ft := &faultyTool{inner: &fakeTool{name: "syslog", findings: []string{"packet_loss=true"}}, inj: inj}
	if _, err := ft.Invoke(testWorld(), nil); err == nil {
		t.Fatal("transient fault must surface as an error")
	}
}

func TestTimeoutFaultChargesDeadlineOnSimClock(t *testing.T) {
	t.Parallel()
	inner := &fakeTool{name: "counters", latency: 5 * time.Minute}
	inj := NewInjector(forceClass(Timeout), 3)
	ft := &faultyTool{inner: inner, inj: inj}
	w := testWorld()
	// The invocation layer charges nominal latency before Invoke; the
	// wrapper charges the remainder up to the deadline.
	w.Clock.Advance(inner.Latency())
	if _, err := ft.Invoke(w, nil); err == nil {
		t.Fatal("timeout fault must surface as an error")
	}
	if got, want := w.Clock.Now(), Deadline(inner); got != want {
		t.Fatalf("hung call charged %v to the sim clock, want full deadline %v", got, want)
	}
}

func TestStaleFaultServesCachedCleanResult(t *testing.T) {
	t.Parallel()
	inner := &fakeTool{name: "linkutil", findings: []string{"congestion=false"}}
	// First call clean (cache fills), every later call stale.
	cfg := forceClass(Stale)
	inj := NewInjector(cfg, 11)
	inj.cfg.Rate = 0
	ft := &faultyTool{inner: inner, inj: inj}
	w := testWorld()
	clean, err := ft.Invoke(w, nil)
	if err != nil || clean.Degraded {
		t.Fatalf("clean call: %v degraded=%v", err, clean.Degraded)
	}
	inj.cfg.Rate = 1
	inner.findings = []string{"congestion=true"} // world moved on; cache did not
	stale, err := ft.Invoke(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Degraded || stale.Source != "stale" {
		t.Fatalf("stale serve not marked: %+v", stale)
	}
	if !reflect.DeepEqual(stale.Findings, []string{"congestion=false"}) {
		t.Fatalf("stale serve should replay the cached reading, got %v", stale.Findings)
	}
}

func TestStaleFaultWithoutCacheMarksLiveReading(t *testing.T) {
	t.Parallel()
	inner := &fakeTool{name: "linkutil", findings: []string{"congestion=true"}}
	ft := &faultyTool{inner: inner, inj: NewInjector(forceClass(Stale), 11)}
	res, err := ft.Invoke(testWorld(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Source != "stale" {
		t.Fatalf("uncached stale serve must still be marked degraded: %+v", res)
	}
}

func TestCorruptFaultFlipsPolarityAndMarks(t *testing.T) {
	t.Parallel()
	inner := &fakeTool{
		name:     "prefixtable",
		findings: []string{"route_leak=true leaked=12", "table_consistent=false"},
	}
	ft := &faultyTool{inner: inner, inj: NewInjector(forceClass(Corrupt), 17)}
	res, err := ft.Invoke(testWorld(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"route_leak=false leaked=12", "table_consistent=true"}
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("corrupted findings = %v, want %v", res.Findings, want)
	}
	if !res.Degraded || res.Source != "corrupt" {
		t.Fatalf("corrupted result must be marked degraded: %+v", res)
	}
}

func TestFlipFindingsRoundTrips(t *testing.T) {
	t.Parallel()
	in := []string{"a=true b=false", "c=false", "plain"}
	if got := flipFindings(flipFindings(in)); !reflect.DeepEqual(got, in) {
		t.Fatalf("double flip should be identity: %v", got)
	}
}

func TestStaleCacheDoesNotAliasLiveResult(t *testing.T) {
	t.Parallel()
	inner := &fakeTool{name: "syslog", findings: []string{"x=true"}, bindings: map[string]string{"$LINK": "l1"}}
	cfg := forceClass(Stale)
	cfg.Rate = 0
	inj := NewInjector(cfg, 11)
	ft := &faultyTool{inner: inner, inj: inj}
	w := testWorld()
	live, _ := ft.Invoke(w, nil)
	live.Findings[0] = "mutated"
	live.Bindings["$LINK"] = "mutated"
	inj.cfg.Rate = 1
	stale, _ := ft.Invoke(w, nil)
	if stale.Findings[0] != "x=true" || stale.Bindings["$LINK"] != "l1" {
		t.Fatalf("cache aliases a live result: %+v", stale)
	}
}

func TestDegradeRampsEffectiveRate(t *testing.T) {
	t.Parallel()
	cfg := Config{Rate: 0.1, Degrade: 1, MaxRate: 0.5}
	if early, late := cfg.effectiveRate(0), cfg.effectiveRate(3*time.Hour); late <= early {
		t.Fatalf("flappy monitor must degrade over time: %v -> %v", early, late)
	}
	if got := cfg.effectiveRate(100 * time.Hour); got != 0.5 {
		t.Fatalf("effective rate must cap at MaxRate: %v", got)
	}
}

func TestActionErrorDeterministicAndSkipsEscalation(t *testing.T) {
	t.Parallel()
	cfg := Config{ActionRate: 0.5, Seed: 21}
	run := func() []bool {
		inj := NewInjector(cfg, 77)
		var out []bool
		for i := 0; i < 50; i++ {
			out = append(out, inj.ActionError(mitigation.Action{Kind: mitigation.IsolateLink, Target: "l1"}) != nil)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("action fault schedule not deterministic per trial seed")
	}
	failed := false
	for _, f := range a {
		failed = failed || f
	}
	if !failed {
		t.Fatal("ActionRate 0.5 over 50 draws should fail at least once")
	}
	inj := NewInjector(cfg, 77)
	for i := 0; i < 100; i++ {
		if inj.ActionError(mitigation.Action{Kind: mitigation.Escalate}) != nil {
			t.Fatal("escalation must never fail")
		}
		if inj.ActionError(mitigation.Action{Kind: mitigation.NoOp}) != nil {
			t.Fatal("no-op must never fail")
		}
	}
}

func TestNilInjectorActionErrorIsSafe(t *testing.T) {
	t.Parallel()
	var inj *Injector
	if inj.ActionError(mitigation.Action{Kind: mitigation.IsolateLink}) != nil {
		t.Fatal("nil injector must inject nothing")
	}
}

func TestConfigValidate(t *testing.T) {
	t.Parallel()
	good := []Config{
		{},
		{Rate: 1, ActionRate: 1, MaxRate: 1},
		{Rate: 0.3, ActionRate: 0.15, Degrade: 0.5, Weights: Weights{Transient: 1}},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Rate: 1.5},
		{Rate: -0.1},
		{ActionRate: 2},
		{ActionRate: -1},
		{MaxRate: 1.1},
		{Degrade: -0.5},
		{Weights: Weights{Corrupt: -1}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an out-of-range config", c)
		}
	}
}
