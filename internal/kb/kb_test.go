package kb

import (
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/mitigation"
)

func TestDefaultCorpusWellFormed(t *testing.T) {
	t.Parallel()
	k := Default()
	if k.Version() != 1 {
		t.Fatalf("version = %d, want 1", k.Version())
	}
	if len(k.Concepts()) < 15 {
		t.Fatalf("only %d concepts", len(k.Concepts()))
	}
	if len(k.Rules()) < 15 {
		t.Fatalf("only %d rules", len(k.Rules()))
	}
	// Every rule endpoint resolves (AddRule enforces; double-check).
	for _, r := range k.Rules() {
		if _, ok := k.ConceptByID(r.Cause); !ok {
			t.Errorf("rule %s cause %q unknown", r.ID, r.Cause)
		}
		if _, ok := k.ConceptByID(r.Effect); !ok {
			t.Errorf("rule %s effect %q unknown", r.ID, r.Effect)
		}
	}
}

func TestCausesOfSortedByStrength(t *testing.T) {
	t.Parallel()
	k := Default()
	causes := k.CausesOf(CPacketLoss)
	if len(causes) < 4 {
		t.Fatalf("packet_loss has %d causes", len(causes))
	}
	for i := 1; i < len(causes); i++ {
		if causes[i-1].Strength < causes[i].Strength {
			t.Fatal("CausesOf not sorted by descending strength")
		}
	}
	// link_overload (0.9) must outrank monitor_false_alarm (0.3).
	if causes[0].Cause != CLinkOverload {
		t.Errorf("top cause = %s, want %s", causes[0].Cause, CLinkOverload)
	}
}

func TestAddRuleValidation(t *testing.T) {
	t.Parallel()
	k := Default()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("unknown cause", func() {
		k.AddRule(Rule{Cause: "nope", Effect: CPacketLoss, Strength: 0.5})
	})
	mustPanic("unknown effect", func() {
		k.AddRule(Rule{Cause: CLinkDown, Effect: "nope", Strength: 0.5})
	})
	mustPanic("bad strength", func() {
		k.AddRule(Rule{Cause: CLinkDown, Effect: CPacketLoss, Strength: 1.5})
	})
}

func TestTeamNamespaces(t *testing.T) {
	t.Parallel()
	k := Default()
	wan := k.TeamRules("wan")
	if len(wan) == 0 {
		t.Fatal("wan team owns no rules")
	}
	for _, r := range wan {
		if r.Team != "wan" {
			t.Errorf("rule %s leaked into wan namespace", r.ID)
		}
	}
	// One team's additions don't perturb another's.
	netinfraBefore := len(k.TeamRules("netinfra"))
	k.AddRule(Rule{ID: "wan-extra", Cause: CMaintenance, Effect: CLatencySpike, Strength: 0.2, Team: "wan"})
	if len(k.TeamRules("netinfra")) != netinfraBefore {
		t.Error("wan team addition changed netinfra namespace")
	}
}

func TestTSGLookup(t *testing.T) {
	t.Parallel()
	k := Default()
	if _, ok := k.tsgs["tsg-device-down"]; !ok {
		t.Fatal("tsg-device-down missing")
	}
	guides := k.TSGForSymptom(CPacketLoss)
	if len(guides) == 0 {
		t.Fatal("no TSG for packet_loss")
	}
	for _, g := range guides {
		if g.Version == 0 {
			t.Errorf("TSG %s has no version", g.ID)
		}
	}
}

func TestComponentsAndDependents(t *testing.T) {
	t.Parallel()
	k := Default()
	if _, ok := k.ComponentByName("traffic-controller"); !ok {
		t.Fatal("traffic-controller component missing")
	}
	deps := k.Dependents("B4")
	names := map[string]bool{}
	for _, c := range deps {
		names[c.Name] = true
	}
	for _, want := range []string{"bulk-transfer", "directconnect", "prefix-pipeline"} {
		if !names[want] {
			t.Errorf("Dependents(B4) missing %s (got %v)", want, names)
		}
	}
}

func TestMitigationsTemplates(t *testing.T) {
	t.Parallel()
	k := Default()
	ms := k.Mitigations(CLinkCorruption)
	if len(ms) != 1 || ms[0].Kind != mitigation.IsolateLink || ms[0].Target != PhLink {
		t.Fatalf("link_corruption mitigations = %v", ms)
	}
	if k.Mitigations("unknown") != nil {
		t.Error("unknown concept should have no mitigations")
	}
	// Mutating the returned slice must not corrupt the KB.
	ms[0].Target = "hacked"
	if k.Mitigations(CLinkCorruption)[0].Target != PhLink {
		t.Error("Mitigations returned aliased storage")
	}
}

func TestFastpathUpdateAddsTSG(t *testing.T) {
	t.Parallel()
	k := Default()
	v1 := k.Version()
	ApplyFastpathUpdate(k)
	if k.Version() != v1+1 {
		t.Fatalf("version after update = %d, want %d", k.Version(), v1+1)
	}
	// The updated KB can backward-chain device_os_crash -> protocol_bug.
	chained := false
	for _, r := range k.CausesOf(CDeviceOSCrash) {
		if r.Cause == CProtocolBug && r.AddedVersion == v1+1 {
			chained = true
		}
	}
	if !chained {
		t.Error("updated KB missing protocol_bug -> device_os_crash")
	}
	tsg, ok := k.tsgs["tsg-fastpath-kill"]
	if !ok {
		t.Fatal("fastpath TSG missing after update")
	}
	hasKill := false
	for _, s := range tsg.Steps {
		if s.Kind == TSGAction && s.Action.Kind == mitigation.DisableProtocol && s.Action.Target == FastpathProtocol {
			hasKill = true
		}
	}
	if !hasKill {
		t.Error("fastpath TSG lacks kill-switch step")
	}
}

func TestHistoryStore(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	h.Add(IncidentRecord{ID: "i1", Title: "loss in east", RootCause: CLinkCorruption,
		Mitigation: []mitigation.Action{{Kind: mitigation.IsolateLink, Target: "l1"}}, TTMMinutes: 30})
	h.Add(IncidentRecord{ID: "i2", Title: "congestion", RootCause: CLinkOverload,
		Mitigation: []mitigation.Action{{Kind: mitigation.RateLimitService, Target: "bulk", Param: "0.5"}}, TTMMinutes: 20})
	h.Add(IncidentRecord{ID: "i1", Title: "loss in east (updated)", RootCause: CLinkCorruption, TTMMinutes: 25})

	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (replace by ID)", h.Len())
	}
	if r, _ := h.ByID("i1"); r.TTMMinutes != 25 {
		t.Error("Add did not replace record")
	}
	if got := h.WithMitigation([]mitigation.Action{{Kind: mitigation.RateLimitService, Target: "bulk"}}); len(got) != 1 {
		t.Errorf("WithMitigation = %+v", got)
	}
	if _, ok := h.ByID("zzz"); ok {
		t.Error("ByID on missing record succeeded")
	}
	if (IncidentRecord{Title: "a", Summary: "b"}).Text() != "a. b" {
		t.Error("Text format changed")
	}
}

// History counts its mutations, LoadJSON's through Add, and an index
// is rebuilt for each version: a fork taken after Add holds the new
// record, while a fork taken before keeps its own view.
func TestHistoryIndexFollowsVersion(t *testing.T) {
	t.Parallel()
	h := NewHistory()
	h.Add(IncidentRecord{ID: "i1", Title: "packet loss in us-east"})
	h.Add(IncidentRecord{ID: "i1", Title: "packet loss in us-east after a config push"})
	if err := h.LoadJSON(strings.NewReader(`[{"id":"i2","title":"fiber cut"},{"id":"i3","title":"router crash"}]`)); err != nil {
		t.Fatal(err)
	}
	if h.version != 4 {
		t.Fatalf("version = %d after 2 Adds and a 2-record LoadJSON, want 4", h.version)
	}
	e := embed.NewDomainEmbedder(64)
	old := h.Index("test", e, IncidentRecord.Text)
	if old.Len() != 3 || h.Index("test", e, IncidentRecord.Text).Len() != 3 {
		t.Fatalf("index of 3 records has %d vectors", old.Len())
	}
	if len(h.indexes) != 1 {
		t.Fatalf("%d indexes built for one (kind, embedder), want 1", len(h.indexes))
	}
	h.Add(IncidentRecord{ID: "i4", Title: "optics degraded on the backbone"})
	if h.indexes != nil {
		t.Fatal("Add kept the previous version's indexes")
	}
	if got := h.Index("test", e, IncidentRecord.Text); got.Len() != 4 || got.Search("optics degraded on the backbone", 1)[0].ID != "i4" {
		t.Fatalf("post-Add index has %d vectors, want the new record among 4", got.Len())
	}
	if old.Len() != 3 {
		t.Fatalf("a fork of the old version changed to %d vectors", old.Len())
	}
}
