package aiops

import (
	"bytes"
	"strings"
	"testing"
)

func TestSystemEndToEnd(t *testing.T) {
	t.Parallel()
	sys := New(WithSeed(1))
	if len(sys.ScenarioNames()) < 8 {
		t.Fatalf("scenario names: %v", sys.ScenarioNames())
	}
	in, err := sys.Spawn("gray-link", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Assist(in, 1)
	if !res.Mitigated || !res.Correct {
		t.Fatalf("assist failed: %+v", res)
	}
	if _, err := sys.Spawn("no-such", 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestSystemTrace(t *testing.T) {
	t.Parallel()
	sys := New(WithSeed(2))
	in, _ := sys.Spawn("cascade-5", 2)
	res, trace := sys.Trace(in, 2)
	if !res.Mitigated {
		t.Fatalf("cascade not mitigated:\n%s", trace)
	}
	for _, want := range []string{"hypotheses", "tool-invoked", "plan-proposed", "executed", "verified"} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("trace missing %q", want)
		}
	}
	if len(trace.Events) == 0 || trace.String() == "" {
		t.Error("structured trace carries no events")
	}
}

func TestSystemOneShotAndControl(t *testing.T) {
	t.Parallel()
	sys := New(WithSeed(3))
	sys.GenerateHistory(60, 3)
	if sys.History().Len() != 60 {
		t.Fatalf("history = %d", sys.History().Len())
	}
	in, _ := sys.Spawn("device-failure", 3)
	osRes := sys.OneShot(in, 3)
	if osRes.TTM <= 0 {
		t.Error("one-shot TTM missing")
	}
	in2, _ := sys.Spawn("device-failure", 3)
	ctl := sys.Unassisted(in2, 3)
	if !ctl.Mitigated {
		t.Errorf("control failed simple incident: %+v", ctl)
	}
}

func TestSystemStaleKnowledgeOption(t *testing.T) {
	t.Parallel()
	stale := New(WithStaleKnowledge(), WithSeed(4))
	in, _ := stale.Spawn("novel-protocol", 4)
	res := stale.Assist(in, 4)
	if res.Mitigated && res.Correct {
		t.Fatal("stale system resolved the novel incident")
	}
	fresh := New(WithSeed(4))
	in2, _ := fresh.Spawn("novel-protocol", 4)
	res2 := fresh.Assist(in2, 4)
	if !res2.Correct {
		t.Fatal("current-knowledge system failed the novel incident")
	}
}

func TestSystemABAndReplay(t *testing.T) {
	t.Parallel()
	sys := New(WithSeed(5))
	ab := sys.ABTest(40, 5)
	if ab.Treatment.N+ab.Control.N != 40 {
		t.Fatalf("AB arms: %d + %d", ab.Treatment.N, ab.Control.N)
	}
	rep := sys.Replay(30, 5)
	if len(rep.Items) != 30 {
		t.Fatalf("replay items: %d", len(rep.Items))
	}
}

func TestSystemOptionKnobs(t *testing.T) {
	t.Parallel()
	sys := New(
		WithHallucination(0.9),
		WithContextWindow(64),
		WithExpertise(0.2),
		WithGenericEmbeddings(),
		WithHelperConfig(HelperConfig{Beam: 1, MaxRounds: 2}),
	)
	in, _ := sys.Spawn("cascade-5", 6)
	res := sys.Assist(in, 6)
	// A crippled helper must fail safe: escalate rather than thrash.
	if res.Mitigated && res.Correct {
		t.Log("crippled helper got lucky; acceptable but unusual")
	}
	if !res.Mitigated && !res.Escalated {
		t.Error("unmitigated incident must escalate")
	}
}

func TestSystemFleet(t *testing.T) {
	t.Parallel()
	sys := New(WithSeed(8))
	a := sys.Fleet(2, 4, 30, 8)
	c := sys.FleetUnassisted(2, 4, 30, 8)
	if a.MeanResolution >= c.MeanResolution {
		t.Fatalf("assisted fleet not faster: %v vs %v", a.MeanResolution, c.MeanResolution)
	}
}

func TestSystemHistoryPersistence(t *testing.T) {
	t.Parallel()
	sys := New(WithSeed(9))
	sys.GenerateHistory(10, 9)
	var buf bytes.Buffer
	if err := sys.SaveHistory(&buf); err != nil {
		t.Fatal(err)
	}
	other := New(WithSeed(9))
	if err := other.LoadHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if other.History().Len() != 10 {
		t.Fatalf("loaded %d records", other.History().Len())
	}
}

func TestSystemPostmortem(t *testing.T) {
	t.Parallel()
	sys := New(WithSeed(10))
	in, _ := sys.Spawn("cascade-5", 10)
	res, pm := sys.Postmortem(in, 10)
	if !res.Mitigated {
		t.Fatal("cascade not mitigated")
	}
	for _, want := range []string{"# Postmortem:", "## Timeline", "## Follow-ups"} {
		if !strings.Contains(pm.String(), want) {
			t.Errorf("postmortem missing %q", want)
		}
	}
	if pm.Costs.LLMCalls == 0 || pm.Costs.Tokens <= 0 {
		t.Errorf("postmortem costs not populated: %+v", pm.Costs)
	}
}

func TestWithFaultsRejectsInvalidConfig(t *testing.T) {
	t.Parallel()
	for _, fc := range []FaultConfig{{Rate: 1.5}, {Rate: -0.1}, {ActionRate: 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithFaults(%+v) did not panic", fc)
				}
			}()
			WithFaults(fc)
		}()
	}
	WithFaults(FaultConfig{Rate: 0.5, ActionRate: 0.25}) // legal: must not panic
}
