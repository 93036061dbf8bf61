package experiments

// Shape-regression tests: every experiment must keep producing the
// qualitative result the paper claims (EXPERIMENTS.md documents them).
// Cells are small — these verify orderings, not precise values.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/eval"
)

func small() Params { return Params{Trials: 4, Seed: 99} }

// cellPct parses a "NN%" table cell.
func cellPct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad pct cell %q", s)
	}
	return v
}

func cellF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float cell %q", s)
	}
	return v
}

func rowByFirst(t *testing.T, tb *eval.Table, key string) []string {
	t.Helper()
	for _, r := range tb.Rows {
		if r[0] == key {
			return r
		}
	}
	t.Fatalf("row %q not in table %q", key, tb.Title)
	return nil
}

func TestE1ShapeTraceAndSuccess(t *testing.T) {
	t.Parallel()
	trace, tables := E1FrameworkTrace(small())
	for _, want := range []string{"hypotheses", "plan-proposed", "risk-assessed", "executed", "verified"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	if got := rowByFirst(t, tables[0], "mitigated"); got[1] != "true" {
		t.Error("E1 did not mitigate")
	}
	if got := rowByFirst(t, tables[0], "plan correct"); got[1] != "true" {
		t.Error("E1 plan incorrect")
	}
}

func TestE2ShapeOneShotCollapsesWithDepth(t *testing.T) {
	t.Parallel()
	tb := E2IterativeVsOneShot(small())[0]
	if len(tb.Rows) < 9 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		name, depth := r[0], cellF(t, r[1])
		os, iter := cellPct(t, r[2]), cellPct(t, r[3])
		if iter < 75 {
			t.Errorf("%s: iterative correct %v%%", name, iter)
		}
		if depth >= 2 && !strings.Contains(name, "congestion") && os > 25 {
			t.Errorf("%s (depth %v): one-shot correct %v%%, expected collapse", name, depth, os)
		}
		if depth <= 1 && os < 50 {
			t.Errorf("%s: one-shot should handle routine incidents, got %v%%", name, os)
		}
	}
}

func TestE3ShapeOnlyAdaptedHelpersSolveNovel(t *testing.T) {
	t.Parallel()
	tb := E3Adaptivity(small())[0]
	get := func(name string) float64 { return cellPct(t, rowByFirst(t, tb, name)[1]) }
	if get("one-shot (history)") > 0 {
		t.Error("one-shot solved the novel incident")
	}
	if get("iterative (stale KB)") > 0 {
		t.Error("stale iterative solved the novel incident")
	}
	if get("iterative (in-context update)") < 75 {
		t.Error("in-context helper failed")
	}
	if get("iterative (fine-tuned)") < 75 {
		t.Error("fine-tuned helper failed")
	}
}

func TestE4ShapeHelperArmFaster(t *testing.T) {
	t.Parallel()
	tables := E4ABTest(Params{Trials: 8, Seed: 99})
	arms := tables[0]
	helper := rowByFirst(t, arms, "iterative-helper")
	control := rowByFirst(t, arms, "unassisted-oce")
	if cellF(t, helper[2]) >= cellF(t, control[2]) {
		t.Errorf("helper mean TTM %s >= control %s", helper[2], control[2])
	}
}

func TestE5ShapePositiveSavings(t *testing.T) {
	t.Parallel()
	tb := E5Replay(small())[0]
	if cellF(t, rowByFirst(t, tb, "mean TTM savings, matched (min)")[1]) <= 0 {
		t.Error("no replay savings")
	}
	if cellPct(t, rowByFirst(t, tb, "match fraction")[1]) < 40 {
		t.Error("match fraction implausibly low")
	}
}

func TestE6ShapeTSGNeverAmortizes(t *testing.T) {
	t.Parallel()
	tables := E6Costs(small())
	tsg := tables[1]
	for _, r := range tsg.Rows {
		if cellF(t, r[3]) <= 0 {
			t.Errorf("LLM overhead non-positive at %s revisions", r[0])
		}
	}
}

func TestE7ShapeRiskEliminatesBadExecutions(t *testing.T) {
	t.Parallel()
	tb := E7RiskAblation(small())[0]
	noRisk := rowByFirst(t, tb, "no risk assessment")
	combined := rowByFirst(t, tb, "combined (paper)")
	if cellF(t, noRisk[2]) == 0 && cellF(t, noRisk[4]) == 0 {
		t.Error("risk-free helper made no mistakes; ablation has no signal")
	}
	if cellF(t, combined[2]) != 0 {
		t.Errorf("combined risk let %s wrong mitigations execute", combined[2])
	}
	if cellF(t, combined[4]) != 0 {
		t.Errorf("combined risk let %s plan errors execute", combined[4])
	}
}

func TestE8ShapeDomainWinsUnderNoise(t *testing.T) {
	t.Parallel()
	tb := E8Embeddings(small())[0]
	gen := rowByFirst(t, tb, "generic-hash")
	dom := rowByFirst(t, tb, "domain-network")
	if cellPct(t, dom[3]) < cellPct(t, gen[3]) {
		t.Errorf("domain noisy-prose P@1 %s < generic %s", dom[3], gen[3])
	}
	if cellF(t, dom[4]) <= cellF(t, gen[4]) {
		t.Errorf("domain margin %s <= generic %s", dom[4], gen[4])
	}
}

func TestE9ShapeDegradationMonotonicities(t *testing.T) {
	t.Parallel()
	tables := E9Sensitivity(small())
	hal := tables[0]
	// Expert row at h=0 must beat expert row at h=0.5.
	var h0, h50 float64
	for _, r := range hal.Rows {
		if r[0] == "0.00" && r[1] == "0.90" {
			h0 = cellPct(t, r[2])
		}
		if r[0] == "0.50" && r[1] == "0.90" {
			h50 = cellPct(t, r[2])
		}
	}
	if h0 <= h50 {
		t.Errorf("hallucination sweep not degrading: %v%% vs %v%%", h0, h50)
	}
	// Window sweep: largest window at least as good as smallest.
	win := tables[2]
	first := cellPct(t, win.Rows[0][1])
	last := cellPct(t, win.Rows[len(win.Rows)-1][1])
	if last < first {
		t.Errorf("bigger window worse: %v%% vs %v%%", last, first)
	}
}

func TestE10ShapeQueueAmplification(t *testing.T) {
	t.Parallel()
	tb := E10FleetLoad(Params{Trials: 8, Seed: 99})[0]
	// At every arrival rate the assisted fleet's mean total is lower.
	for i := 0; i+1 < len(tb.Rows); i += 2 {
		assisted, control := tb.Rows[i], tb.Rows[i+1]
		if assisted[1] != "assisted" || control[1] != "control" {
			t.Fatalf("row order changed: %v / %v", assisted, control)
		}
		if cellF(t, assisted[3]) >= cellF(t, control[3]) {
			t.Errorf("rate %s: assisted total %s >= control %s", assisted[0], assisted[3], control[3])
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	if len(Registry) != 18 {
		t.Fatalf("registry has %d experiments", len(Registry))
	}
	for i, e := range Registry {
		if want := "e" + strconv.Itoa(i+1); e.ID != want || e.Run == nil {
			t.Fatalf("registry entry %d is %q (run set: %v), want %s", i, e.ID, e.Run != nil, want)
		}
	}
}

func TestE11ShapeLearningCurve(t *testing.T) {
	t.Parallel()
	tb := E11LearningCurve(small())[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if cellPct(t, first[1]) >= cellPct(t, last[1]) {
		t.Errorf("routine accuracy did not grow with history: %s -> %s", first[1], last[1])
	}
	for _, r := range tb.Rows {
		if cellPct(t, r[2]) > 0 {
			t.Errorf("history %s: one-shot solved the novel incident", r[0])
		}
	}
}

func TestE12ShapeRAGCompensatesWeakRecall(t *testing.T) {
	t.Parallel()
	tb := E12SmallModels(Params{Trials: 6, Seed: 99})[0]
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	get := func(recall, rag string) (correct, tokens float64) {
		for _, r := range tb.Rows {
			if r[0] == recall && r[1] == rag {
				return cellPct(t, r[2]), cellF(t, r[4])
			}
		}
		t.Fatalf("row %s/%s missing", recall, rag)
		return 0, 0
	}
	fullBare, _ := get("1.00", "no")
	lowBare, _ := get("0.30", "no")
	lowRAG, lowRAGTokens := get("0.30", "yes")
	if lowBare >= fullBare {
		t.Errorf("weak recall did not degrade: %v%% vs %v%%", lowBare, fullBare)
	}
	if lowRAG <= lowBare {
		t.Errorf("in-context KB did not help the small model: %v%% vs %v%%", lowRAG, lowBare)
	}
	_, lowBareTokens := get("0.30", "no")
	if lowRAGTokens <= lowBareTokens {
		t.Errorf("RAG should cost tokens: %v vs %v", lowRAGTokens, lowBareTokens)
	}
}
