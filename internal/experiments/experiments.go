// Package experiments implements the per-experiment harnesses E1-E18
// indexed in DESIGN.md: each regenerates one of the paper's figures or
// §3 evaluation methodologies as a printable table, with the qualitative
// shape the paper claims (who wins, by roughly what factor, where the
// crossovers are).
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

// Params sizes an experiment run.
type Params struct {
	Trials  int   // incidents per cell (default 20)
	Seed    int64 // base seed
	Workers int   // parallel trial workers (<= 0: GOMAXPROCS)

	// FaultRate is the top of E13's fault-rate ladder (0 keeps E13's
	// default); other experiments ignore it and stay fault-free.
	FaultRate float64
	// FaultSeed selects E13's fault schedules (default 1337).
	FaultSeed int64
	// Naive drops E13's resilient-helper arm, leaving the naive helper
	// and the control — the CLIs' -naive flag.
	Naive bool
	// Obs, when non-nil, collects every trial's event stream and the
	// aggregate metrics across whichever experiments run. Tables are
	// byte-identical with or without it.
	Obs *obs.Sink
}

func (p Params) withDefaults() Params {
	if p.Trials <= 0 {
		p.Trials = 20
	}
	return p
}

// sub derives the per-cell Params every experiment hands runCell: same
// sizing, workers and sink, seed shifted by the experiment's offset.
func (p Params) sub(seedOffset int64) Params {
	p2 := p
	p2.Seed = p.Seed + seedOffset
	return p2
}

// currentKB returns the up-to-date knowledge base (base corpus plus the
// fastpath rollout delta).
func currentKB() *kb.KB {
	k := kb.Default()
	kb.ApplyFastpathUpdate(k)
	return k
}

// staleKB returns version-1 knowledge (predates fastpath).
func staleKB() *kb.KB { return kb.Default() }

// fastpathRules is the in-context form of the fastpath knowledge delta.
func fastpathRules() []llm.InContextRule {
	return []llm.InContextRule{
		{Cause: kb.CProtocolRollout, Effect: kb.CProtocolBug, Strength: 0.4},
		{Cause: kb.CProtocolBug, Effect: kb.CDeviceOSCrash, Strength: 0.8},
	}
}

// cell accumulates per-runner statistics for one experiment cell.
type cell struct {
	n, correct, mitigated, escalated int
	wrong, secondary, planErr        int
	retries, quarantined             int
	ttmMin, rounds, tokens           float64
	ttms                             []float64
}

func (c *cell) add(r harness.Result) {
	c.n++
	if r.Correct {
		c.correct++
	}
	if r.Mitigated {
		c.mitigated++
	}
	if r.Escalated {
		c.escalated++
	}
	c.wrong += r.Wrong
	c.secondary += r.Secondary
	c.planErr += r.PlanErrors
	c.retries += r.Retries
	c.quarantined += r.Quarantined
	m := r.PenalizedTTM().Minutes()
	c.ttmMin += m
	c.ttms = append(c.ttms, m)
	c.rounds += float64(r.Rounds)
	c.tokens += float64(r.Tokens)
}

func (c *cell) rate(k int) float64 {
	if c.n == 0 {
		return 0
	}
	return float64(k) / float64(c.n)
}

func (c *cell) meanTTM() float64    { return c.ttmMin / maxf(1, float64(c.n)) }
func (c *cell) meanRounds() float64 { return c.rounds / maxf(1, float64(c.n)) }
func (c *cell) meanTokens() float64 { return c.tokens / maxf(1, float64(c.n)) }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// runCell drives one runner over Trials instances of one scenario on
// the parallel trial pool. Per-trial seeds come from the scheduling-
// independent derivation, and results aggregate in trial order, so the
// cell is bit-identical at any worker count.
func runCell(sc scenarios.Scenario, r harness.Runner, p Params) *cell {
	c := &cell{}
	for _, tr := range harness.RunPoolObserved(sc, r, p.Trials, p.Workers, p.Seed, p.Obs) {
		c.add(harness.PoolResult(sc, tr))
	}
	return c
}

// routineHistory generates the one-shot baseline's training corpus:
// routine incidents resolved in the past (deep cascades and the novel
// protocol incident are, as in production, absent from history).
func routineHistory(seed int64, n int) *replayer.Corpus {
	return replayer.Generate(replayer.Options{N: n, Seed: seed})
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: the three modules end to end.
// ---------------------------------------------------------------------------

// E1FrameworkTrace runs the full Casc-1 incident through the helper and
// returns the module-by-module trace plus a summary table.
func E1FrameworkTrace(p Params) (string, []*eval.Table) {
	p = p.withDefaults()
	kbase := currentKB()
	sc := &scenarios.Cascade{Stage: 5}
	in := sc.Build(randsrc.New(p.Seed))
	model := llm.NewSimLLM(kbase, p.Seed)
	res, out := harness.RunSession(model, kbase, core.DefaultConfig(), 0.9, kb.NewHistory(), in, p.Seed, p.Obs.Observer())
	trace := core.NewSessionTrace(out).String()

	t := eval.NewTable("E1 (Fig.1): framework session summary — full Casc-1 incident",
		"metric", "value")
	t.AddRow("scenario", in.Scenario.Name())
	t.AddRow("mitigated", res.Mitigated)
	t.AddRow("plan correct", res.Correct)
	t.AddRow("root cause found", res.RootCause)
	t.AddRow("TTM (min)", res.TTM.Minutes())
	t.AddRow("rounds", res.Rounds)
	t.AddRow("tool calls", res.ToolCalls)
	t.AddRow("LLM calls", res.LLMCalls)
	t.AddRow("LLM tokens", res.Tokens)
	return trace, []*eval.Table{t}
}

// ---------------------------------------------------------------------------
// E2 — Figure 2: iterative vs one-shot across causal-chain depth.
// ---------------------------------------------------------------------------

// E2IterativeVsOneShot runs both predictor designs over the scenario
// ladder ordered by ground-truth chain depth. The paper's shape: one-shot
// holds up on shallow routine incidents and collapses as the chain
// deepens or turns novel; the iterative helper degrades gracefully, with
// deduction rounds growing roughly with depth.
func E2IterativeVsOneShot(p Params) []*eval.Table {
	p = p.withDefaults()
	corpus := routineHistory(p.Seed^0x2222, 150)
	kbase := currentKB()
	iter := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: corpus.History}
	oneShot := &harness.OneShotRunner{History: corpus.History, KBase: kbase}

	type row struct {
		name  string
		depth int
		os    *cell
		it    *cell
	}
	var rows []row
	for _, sc := range scenarios.All() {
		depth := sc.Build(randsrc.New(1)).Incident.Truth.ChainDepth()
		rows = append(rows, row{
			name:  sc.Name(),
			depth: depth,
			os:    runCell(sc, oneShot, p.sub(11)),
			it:    runCell(sc, iter, p.sub(11)),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].depth < rows[j].depth })

	t := eval.NewTable("E2 (Fig.2): one-shot vs iterative by causal-chain depth",
		"scenario", "depth", "oneshot-correct", "iter-correct", "oneshot-TTM(m)", "iter-TTM(m)", "iter-rounds")
	for _, r := range rows {
		t.AddRow(r.name, r.depth,
			eval.Pct(r.os.rate(r.os.correct)), eval.Pct(r.it.rate(r.it.correct)),
			r.os.meanTTM(), r.it.meanTTM(), r.it.meanRounds())
	}
	return []*eval.Table{t}
}

// ---------------------------------------------------------------------------
// E3 — Figure 3: adaptivity on the novel-protocol incident.
// ---------------------------------------------------------------------------

// E3Adaptivity contrasts helper variants on the Tokyo-style incident: the
// one-shot (no matching history can exist), the stale iterative helper
// (v1 knowledge), the in-context-updated helper, the fine-tuned helper,
// and the unassisted human for reference. Paper shape: only updated
// iterative helpers resolve it, and the update is a small rule delta, not
// end-to-end samples.
func E3Adaptivity(p Params) []*eval.Table {
	p = p.withDefaults()
	corpus := routineHistory(p.Seed^0x3333, 150)
	sc := &scenarios.NovelProtocol{}

	staleCfg := core.DefaultConfig()
	inctxCfg := core.DefaultConfig()
	inctxCfg.InContextRules = fastpathRules()

	runners := []harness.Runner{
		&harness.OneShotRunner{Label: "one-shot (history)", History: corpus.History, KBase: currentKB()},
		&harness.HelperRunner{Label: "iterative (stale KB)", KBase: staleKB(), Config: staleCfg, OCEKB: currentKB(), History: corpus.History},
		&harness.HelperRunner{Label: "iterative (in-context update)", KBase: staleKB(), Config: inctxCfg, OCEKB: currentKB(), History: corpus.History},
		&harness.HelperRunner{Label: "iterative (fine-tuned)", KBase: currentKB(), Config: core.DefaultConfig(), History: corpus.History},
		&harness.ControlRunner{Label: "unassisted OCE", KBase: currentKB(), History: corpus.History},
	}
	t := eval.NewTable("E3 (Fig.3): adaptivity on the novel-protocol (Tokyo) incident",
		"helper", "correct", "escalated", "TTM(m)", "rounds")
	for _, r := range runners {
		c := runCell(sc, r, p.sub(31))
		t.AddRow(r.Name(), eval.Pct(c.rate(c.correct)), eval.Pct(c.rate(c.escalated)), c.meanTTM(), c.meanRounds())
	}
	return []*eval.Table{t}
}

// ---------------------------------------------------------------------------
// E4 — §3: randomized A/B evaluation.
// ---------------------------------------------------------------------------

// E4ABTest runs the randomized trial over the mixed workload and reports
// arm statistics, mistake overheads and significance tests.
func E4ABTest(p Params) []*eval.Table {
	p = p.withDefaults()
	n := p.Trials * 8 // the AB harness needs volume; Trials scales it
	kbase := currentKB()
	hist := routineHistory(p.Seed^0x4444, 120).History
	res := eval.ABTest(eval.ABConfig{N: n, Seed: p.Seed + 41, Workers: p.Workers, Obs: p.Obs},
		&harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: hist},
		&harness.ControlRunner{KBase: kbase, Expertise: 0.8, History: hist},
	)

	arms := eval.NewTable("E4 (§3): A/B trial — helper-assisted vs control",
		"arm", "n", "meanTTM(m)", "medianTTM(m)", "p95TTM(m)", "mitigated", "correct", "wrong-mitigations", "secondary")
	for _, a := range []*eval.ArmStats{&res.Treatment, &res.Control} {
		arms.AddRow(a.Name, a.N, a.MeanTTM(), a.MedianTTM(), eval.Percentile(a.TTMMinutes, 95),
			eval.Pct(a.MitigationRate()), eval.Pct(a.CorrectRate()), a.Wrong, a.Secondary)
	}

	tests := eval.NewTable("E4 (§3): significance of the TTM difference",
		"test", "statistic", "p-value")
	tests.AddRow("Welch t", res.Welch.T, fmt.Sprintf("%.4g", res.Welch.P))
	tests.AddRow("Mann-Whitney U (z)", res.MannWhitney.T, fmt.Sprintf("%.4g", res.MannWhitney.P))
	tests.AddRow("permutation (mean diff)", "-", fmt.Sprintf("%.4g", res.PermP))
	tests.AddRow("bootstrap 95% CI of diff (min)", fmt.Sprintf("[%.1f, %.1f]", res.DiffLo, res.DiffHi), "-")
	tests.AddRow("Cohen's d", res.EffectSize, "-")
	return []*eval.Table{arms, tests}
}

// ---------------------------------------------------------------------------
// E5 — §3: historical replay.
// ---------------------------------------------------------------------------

// E5Replay generates a historical corpus (operators resolving routine
// and cascade incidents unassisted) and replays it through the helper.
func E5Replay(p Params) []*eval.Table {
	p = p.withDefaults()
	mix := append(scenarios.Routine(), &scenarios.Cascade{Stage: 5})
	c := replayer.Generate(replayer.Options{N: p.Trials * 6, Seed: p.Seed ^ 0x5555, Mix: mix})
	runner := &harness.HelperRunner{KBase: currentKB(), Config: core.DefaultConfig(), History: c.History}
	rep := replayer.ReplayObserved(c, runner, p.Workers, p.Obs)

	t := eval.NewTable("E5 (§3): historical replay through the helper", "metric", "value")
	t.AddRow("corpus size", len(rep.Items))
	t.AddRow("mitigation matched", rep.Matched)
	t.AddRow("mitigation mismatched", rep.Mismatched)
	t.AddRow("helper unresolved", rep.Unresolved)
	t.AddRow("match fraction", eval.Pct(rep.MatchFraction()))
	t.AddRow("mean TTM savings, matched (min)", rep.MeanSavings.Minutes())
	t.AddRow("mismatches with conditional estimate", rep.CondCovered)
	t.AddRow("mean TTM savings incl. conditional (min)", rep.MeanCondSavings.Minutes())
	return []*eval.Table{t}
}

// ---------------------------------------------------------------------------
// E6 — §3: system and management costs.
// ---------------------------------------------------------------------------

// slaCostPerMinute models revenue/SLA exposure per minute of unresolved
// incident by severity (netsim severity scale 0-3).
var slaCostPerMinute = map[int]float64{0: 5, 1: 50, 2: 500, 3: 2000}

// E6Costs reports (a) helper inference cost per incident class against
// the modeled SLA exposure the saved minutes represent, and (b) the TSG
// automation vs script cost ladder over change rate.
func E6Costs(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()
	hist := routineHistory(p.Seed^0x6666, 100).History
	helper := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: hist}
	control := &harness.ControlRunner{KBase: kbase, Expertise: 0.8, History: hist}
	pricing := llm.DefaultPricing()

	infer := eval.NewTable("E6 (§3): helper inference cost vs SLA exposure saved",
		"scenario", "tokens/incident", "LLM cost $", "TTM saved (m)", "SLA $ saved", "cost ratio")
	for _, sc := range scenarios.All() {
		ch := runCell(sc, helper, p.sub(61))
		cc := runCell(sc, control, p.sub(61))
		sev := sc.Build(randsrc.New(1)).Incident.Severity
		saved := cc.meanTTM() - ch.meanTTM()
		slaSaved := saved * slaCostPerMinute[sev]
		llmCost := ch.meanTokens() / 1000 * pricing.PromptPer1K
		ratio := "inf"
		if slaSaved > 0 {
			ratio = fmt.Sprintf("%.4f", llmCost/slaSaved)
		}
		infer.AddRow(sc.Name(), ch.meanTokens(), llmCost, saved, slaSaved, ratio)
	}

	m := baseline.DefaultCostModel()
	tsg := eval.NewTable("E6 (§3): TSG automation — LLM vs hard-coded script (240 incidents/yr, 2k tok/run)",
		"TSG revisions/yr", "LLM total $", "script total $", "LLM overhead $")
	for _, rev := range []int{0, 4, 12, 24} {
		l := m.LLMTSGCost(rev, 240, 2000)
		s := m.ScriptCost(rev)
		tsg.AddRow(rev, l.Total(), s.Total(), l.Total()-s.Total())
	}
	return []*eval.Table{infer, tsg}
}

// ---------------------------------------------------------------------------
// E7 — §2/§4.3: risk assessment ablation.
// ---------------------------------------------------------------------------

// E7RiskAblation compares helper variants with risk views disabled, on a
// hallucinating model over the risky workload. Paper shape: disabling
// risk feedback buys nothing and costs wrong mitigations and secondary
// impact; the combined view dominates either alone.
func E7RiskAblation(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()
	mkCfg := func(qual, quant bool) core.Config {
		c := core.DefaultConfig()
		c.UseQualitativeRisk = qual
		c.UseQuantitativeRisk = quant
		return c
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"no risk assessment", mkCfg(false, false)},
		{"qualitative only", mkCfg(true, false)},
		{"quantitative only", mkCfg(false, true)},
		{"combined (paper)", mkCfg(true, true)},
	}
	workload := []scenarios.Scenario{&scenarios.NovelProtocol{}, &scenarios.Cascade{Stage: 5}, &scenarios.FalseAlarm{}}

	t := eval.NewTable("E7 (§2): risk-assessment ablation (hallucination rate 0.15)",
		"variant", "correct", "wrong-mitigations", "secondary", "plan-errors", "TTM(m)")
	for _, v := range variants {
		agg := &cell{}
		for _, sc := range workload {
			r := &harness.HelperRunner{KBase: kbase, Config: v.cfg, Hallucination: 0.15}
			c := runCell(sc, r, p.sub(71))
			agg.merge(c)
		}
		t.AddRow(v.name, eval.Pct(agg.rate(agg.correct)), agg.wrong, agg.secondary, agg.planErr, agg.meanTTM())
	}
	return []*eval.Table{t}
}

func (c *cell) merge(o *cell) {
	c.n += o.n
	c.correct += o.correct
	c.mitigated += o.mitigated
	c.escalated += o.escalated
	c.wrong += o.wrong
	c.secondary += o.secondary
	c.planErr += o.planErr
	c.retries += o.retries
	c.quarantined += o.quarantined
	c.ttmMin += o.ttmMin
	c.rounds += o.rounds
	c.tokens += o.tokens
	c.ttms = append(c.ttms, o.ttms...)
}

// ---------------------------------------------------------------------------
// E8 — §4.4: network-focused embeddings.
// ---------------------------------------------------------------------------

// paraphraser rewrites incident prose with domain synonyms — the way a
// different engineer would have written the same report. The network
// embedder folds these synonyms onto shared tokens; a generic embedder
// sees unrelated strings. Retrieval must survive this to be useful.
var paraphraser = strings.NewReplacer(
	"loss", "discards", "Loss", "Discards",
	"drops", "discards", "Drops", "Discards",
	"packet", "frame", "Packet", "Frame",
	"crash", "wedge", "crashed", "wedged",
	"resetting", "watchdog cycling",
	"retransmissions", "resends",
	"checksum", "crc", "Checksum", "CRC",
	"congestion", "saturation", "congested", "saturated",
	"saturated", "overdriven",
	"latency", "rtt", "Latency", "RTT",
	"monitoring", "telemetry", "Monitoring", "Telemetry",
	"customers", "tenants", "Customers", "Tenants",
	"timeouts", "stalls",
	"blackholed", "null-routed", "Blackholed", "Null-routed",
	"tunnels", "circuits",
)

// E8Embeddings measures retrieval quality (P@1 of the root cause over
// history) and the downstream one-shot outcome for the generic vs the
// network-domain embedding model. Probe incidents are paraphrased with
// domain synonyms, so they never repeat the historical phrasing
// verbatim — the held-out condition §4.4 worries about.
func E8Embeddings(p Params) []*eval.Table {
	p = p.withDefaults()
	corpus := routineHistory(p.Seed^0x8888, 150)
	kbase := currentKB()
	embedders := []embed.Embedder{embed.NewHashEmbedder(128), embed.NewDomainEmbedder(128)}

	t := eval.NewTable("E8 (§4.4): generic vs network-domain embeddings (paraphrased probes)",
		"embedder", "P@1 full report", "P@1 prose-only", "P@1 noisy-prose", "class margin", "oneshot-correct")
	for _, e := range embedders {
		// Retrieval over the full report (incl. the machine-generated
		// alert digest) and over operator prose alone. The digest is
		// structured and identical in form across reports, so it papers
		// over embedding quality; prose-only is where §4.4's concern
		// bites.
		pred := baseline.Train(corpus.History, kbase, e)
		prose := embed.NewStore(e)
		for _, rec := range corpus.History.All() {
			prose.Add(rec.ID, stripDigest(rec.Text()))
		}
		fullHits, proseHits, noisyHits, total := 0, 0, 0, 0
		var marginSum float64
		rng := randsrc.New(p.Seed + 81)
		for _, sc := range scenarios.Routine() {
			for i := 0; i < p.Trials; i++ {
				in := sc.Build(randsrc.New(rng.Int63()))
				in.Incident.Title = paraphraser.Replace(in.Incident.Title)
				in.Incident.Summary = paraphraser.Replace(in.Incident.Summary)
				total++
				if pr, ok := pred.Predict(in.Incident); ok && pr.RootCause == in.Incident.Truth.RootCause {
					fullHits++
				}
				q := stripDigest(in.Incident.Title + ". " + in.Incident.Summary)
				if hits := prose.Search(q, 1); len(hits) == 1 {
					if rec, ok := corpus.History.ByID(hits[0].ID); ok && rec.RootCause == in.Incident.Truth.RootCause {
						proseHits++
					}
				}
				// Noisy condition: ticket boilerplate dilutes the signal.
				noisy := q + " " + fillerProse(rng, 60)
				if hits := prose.Search(noisy, 1); len(hits) == 1 {
					if rec, ok := corpus.History.ByID(hits[0].ID); ok && rec.RootCause == in.Incident.Truth.RootCause {
						noisyHits++
					}
				}
				// Class-separation margin: mean similarity to same-class
				// records minus mean similarity to other classes.
				marginSum += classMargin(e, corpus, q, in.Incident.Truth.RootCause)
			}
		}
		agg := &cell{}
		for _, sc := range scenarios.Routine() {
			r := &paraphrasedRunner{inner: &harness.OneShotRunner{History: corpus.History, KBase: kbase, Embedder: e}}
			agg.merge(runCell(sc, r, p.sub(82)))
		}
		t.AddRow(e.Name(),
			eval.Pct(float64(fullHits)/float64(total)),
			eval.Pct(float64(proseHits)/float64(total)),
			eval.Pct(float64(noisyHits)/float64(total)),
			fmt.Sprintf("%.3f", marginSum/float64(total)),
			eval.Pct(agg.rate(agg.correct)))
	}
	return []*eval.Table{t}
}

// stripDigest removes the machine-generated alert digest from report
// text, leaving operator prose.
func stripDigest(text string) string {
	if i := strings.Index(text, "auto-digest:"); i >= 0 {
		return text[:i]
	}
	return text
}

// fillerWords is incident-ticket boilerplate with no diagnostic content.
var fillerWords = []string{
	"please", "see", "attached", "ticket", "update", "thanks", "team",
	"escalating", "per", "runbook", "attaching", "screenshot", "timeline",
	"follow", "up", "status", "call", "bridge", "joined", "acknowledged",
	"paging", "secondary", "manager", "notified", "stakeholders", "aware",
}

// fillerProse generates n words of boilerplate.
func fillerProse(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(fillerWords[rng.Intn(len(fillerWords))])
	}
	return b.String()
}

// classMargin measures how much closer the query embeds to same-class
// records than to other classes: the retrieval robustness §4.4 is after.
func classMargin(e embed.Embedder, corpus *replayer.Corpus, query, class string) float64 {
	qv := e.Embed(query)
	var same, other float64
	var nSame, nOther int
	for _, rec := range corpus.History.All() {
		sim := embed.Cosine(qv, e.Embed(stripDigest(rec.Text())))
		if rec.RootCause == class {
			same += sim
			nSame++
		} else {
			other += sim
			nOther++
		}
	}
	if nSame == 0 || nOther == 0 {
		return 0
	}
	return same/float64(nSame) - other/float64(nOther)
}

// paraphrasedRunner rewrites the incident prose before handing it to the
// inner runner.
type paraphrasedRunner struct{ inner harness.Runner }

func (r *paraphrasedRunner) Name() string { return r.inner.Name() }

func (r *paraphrasedRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	in.Incident.Title = paraphraser.Replace(in.Incident.Title)
	in.Incident.Summary = paraphraser.Replace(in.Incident.Summary)
	return r.inner.Run(in, seed)
}

// ---------------------------------------------------------------------------
// E9 — sensitivity sweeps.
// ---------------------------------------------------------------------------

// E9Sensitivity sweeps hallucination rate x OCE expertise, hypothesis
// beam width, and context-window size.
func E9Sensitivity(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()
	workload := []scenarios.Scenario{&scenarios.GrayLink{}, &scenarios.Cascade{Stage: 5}}

	hal := eval.NewTable("E9a: hallucination rate x OCE expertise (gray-link + cascade-5)",
		"hallucination", "expertise", "correct", "secondary", "TTM(m)")
	for _, h := range []float64{0, 0.1, 0.25, 0.5} {
		for _, ex := range []float64{0.9, 0.4} {
			agg := &cell{}
			for _, sc := range workload {
				r := &harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), Hallucination: h, Expertise: ex}
				agg.merge(runCell(sc, r, p.sub(91)))
			}
			hal.AddRow(h, ex, eval.Pct(agg.rate(agg.correct)), agg.secondary, agg.meanTTM())
		}
	}

	// Beam width matters when the top suggestion can be wrong: a wider
	// beam gives the OCE ranked alternatives to approve after vetoing a
	// fabrication, at the price of tokens. Swept under hallucination.
	beam := eval.NewTable("E9b: hypothesis beam width (cascade-5 + gray-link, hallucination 0.2)",
		"beam", "correct", "TTM(m)", "rounds", "tokens/incident")
	for _, b := range []int{1, 2, 3, 5} {
		cfg := core.DefaultConfig()
		cfg.Beam = b
		agg := &cell{}
		for _, sc := range workload {
			r := &harness.HelperRunner{KBase: kbase, Config: cfg, Hallucination: 0.2}
			agg.merge(runCell(sc, r, p.sub(92)))
		}
		beam.AddRow(b, eval.Pct(agg.rate(agg.correct)), agg.meanTTM(), agg.meanRounds(), agg.meanTokens())
	}

	sc := eval.NewTable("E9d: self-consistency votes on interpretation (gray-link, hallucination 0.3, novice OCE)",
		"votes", "correct", "TTM(m)", "tokens/incident")
	for _, v := range []int{1, 3, 5} {
		cfg := core.DefaultConfig()
		cfg.SelfConsistency = v
		r := &harness.HelperRunner{KBase: kbase, Config: cfg, Hallucination: 0.3, Expertise: 0.3}
		pp := p.sub(94)
		pp.Trials = p.Trials * 2
		c := runCell(&scenarios.GrayLink{}, r, pp)
		sc.AddRow(v, eval.Pct(c.rate(c.correct)), c.meanTTM(), c.meanTokens())
	}

	win := eval.NewTable("E9c: context window (novel-protocol via in-context update)",
		"window(tokens)", "correct", "escalated", "TTM(m)")
	for _, w := range []int{96, 192, 512, 8192} {
		cfg := core.DefaultConfig()
		cfg.InContextRules = fastpathRules()
		r := &harness.HelperRunner{KBase: staleKB(), OCEKB: currentKB(), Config: cfg, Window: w}
		c := runCell(&scenarios.NovelProtocol{}, r, p.sub(93))
		win.AddRow(w, eval.Pct(c.rate(c.correct)), eval.Pct(c.rate(c.escalated)), c.meanTTM())
	}
	return []*eval.Table{hal, beam, win, sc}
}

// Experiment is one registered experiment: its id (e1, e2, ...), a
// one-line description, and the function that renders its tables.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Params) []*eval.Table
}

// Render runs e and writes its text block as benchgen prints it: a
// header line, E1's session trace, then every table. It returns the
// trace (empty for other experiments) and the tables.
func (e Experiment) Render(w io.Writer, p Params) (string, []*eval.Table) {
	fmt.Fprintf(w, "==== %s: %s ====\n\n", e.ID, e.Desc)
	var trace string
	var tables []*eval.Table
	if e.ID == "e1" {
		trace, tables = E1FrameworkTrace(p)
		fmt.Fprintln(w, trace)
	} else {
		tables = e.Run(p)
	}
	for _, t := range tables {
		fmt.Fprintln(w, t)
	}
	return trace, tables
}

// Registry lists every experiment in order.
var Registry = []Experiment{
	{"e1", "Fig.1 framework session", func(p Params) []*eval.Table { _, ts := E1FrameworkTrace(p); return ts }},
	{"e2", "Fig.2 iterative vs one-shot by depth", E2IterativeVsOneShot},
	{"e3", "Fig.3 adaptivity on the novel incident", E3Adaptivity},
	{"e4", "§3 A/B trial", E4ABTest},
	{"e5", "§3 historical replay", E5Replay},
	{"e6", "§3 system & management costs", E6Costs},
	{"e7", "§2 risk ablation", E7RiskAblation},
	{"e8", "§4.4 embeddings", E8Embeddings},
	{"e9", "sensitivity sweeps", E9Sensitivity},
	{"e10", "fleet-level load (extension)", E10FleetLoad},
	{"e11", "one-shot learning curve (extension)", E11LearningCurve},
	{"e12", "small models + retrieval (extension)", E12SmallModels},
	{"e13", "robustness under degraded telemetry (extension)", E13Resilience},
	{"e14", "offered-load ladder on the fleet scheduler (extension)", E14OfferedLoad},
	{"e15", "gateway load ladder over live HTTP (extension)", E15GatewayLoad},
	{"e16", "crash-safety chaos: kill/restart cycles under faulty clients (extension)", E16Chaos},
	{"e17", "sharded multi-region fleet at hyperscale: offered-load ladder with storms and work stealing (extension)", E17ShardedFleet},
	{"e18", "adaptive learning loop: verified vs always-ingest corpus promotion (extension)", E18AdaptiveLoop},
}

// ---------------------------------------------------------------------------
// E10 — fleet-level operations (extension): queueing under load.
// ---------------------------------------------------------------------------

// E10FleetLoad sweeps the incident arrival rate over a fixed responder
// pool, comparing the helper-assisted fleet with the unassisted one.
// Per-incident TTM gains compound: once the pool runs hot, queueing
// delay amplifies the difference, and the assisted pool saturates at a
// much higher arrival rate.
func E10FleetLoad(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()

	// The (arrival rate x arm) cells are independent fleet simulations,
	// so the grid itself runs on the trial pool: each cell constructs its
	// own runner and seeds its own simulation, and rows render in cell
	// order — identical output at any worker count.
	type fleetCell struct {
		lambda   float64
		assisted bool
	}
	var cells []fleetCell
	for _, lambda := range []float64{0.5, 2, 4, 8} {
		cells = append(cells, fleetCell{lambda, true}, fleetCell{lambda, false})
	}
	type fleetRow struct {
		name string
		rep  *fleet.Report
	}
	// Each cell is a whole sub-simulation, so observability uses a
	// private sink per cell, merged in cell order afterwards — the same
	// absorb-in-deterministic-order contract the trial pool uses. A
	// cell sink keeps an event log only when the run's sink does.
	var cellSinks []*obs.Sink
	if p.Obs != nil {
		cellSinks = make([]*obs.Sink, len(cells))
	}
	rows := parallel.RunTrials(len(cells), p.Workers, p.Seed, func(_ int64, i int) fleetRow {
		c := cells[i]
		var arm harness.Runner
		if c.assisted {
			arm = &harness.HelperRunner{Label: "assisted", KBase: kbase, Config: core.DefaultConfig()}
		} else {
			arm = &harness.ControlRunner{Label: "control", KBase: kbase}
		}
		var sink *obs.Sink
		if cellSinks != nil {
			if p.Obs.KeepsLog() {
				sink = obs.NewLogSink()
			} else {
				sink = obs.NewSink()
			}
			cellSinks[i] = sink
		}
		return fleetRow{arm.Name(), fleet.Simulate(fleet.Config{
			OCEs: 2, ArrivalsPerHour: c.lambda, Incidents: p.Trials * 4,
			Seed: p.Seed + 101, Runner: arm, Obs: sink,
			Policy: fleet.FIFO, QueueLimit: 0,
		})}
	})
	for _, sink := range cellSinks {
		p.Obs.AbsorbSink(sink)
	}

	t := eval.NewTable("E10 (extension): fleet of 2 OCEs under incident load",
		"arrivals/h", "arm", "meanQueue(m)", "meanTotal(m)", "p95Total(m)", "utilization")
	for i, tr := range rows {
		if tr.Err != nil {
			t.AddRow(cells[i].lambda, "(cell crashed)", "-", "-", "-", "-")
			continue
		}
		rep := tr.Value.rep
		t.AddRow(cells[i].lambda, tr.Value.name, rep.MeanQueue.Minutes(), rep.MeanResolution.Minutes(),
			rep.P95Resolution.Minutes(), fmt.Sprintf("%.2f", rep.Utilization))
	}
	return []*eval.Table{t}
}

// ---------------------------------------------------------------------------
// E11 — learning curve (extension): how history size feeds the one-shot.
// ---------------------------------------------------------------------------

// E11LearningCurve grows the incident history and measures the one-shot
// baseline against it: accuracy on routine incidents climbs with corpus
// size (prior work's operating regime), while accuracy on the novel
// incident stays at zero no matter how much history accumulates — "no
// amount of historical incidents could supply a helper with the
// knowledge to mitigate such an incident."
func E11LearningCurve(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()
	t := eval.NewTable("E11 (extension): one-shot learning curve vs history size",
		"history", "routine-correct", "novel-correct", "routine-TTM(m)")
	for _, n := range []int{0, 10, 50, 150} {
		hist := kb.NewHistory()
		if n > 0 {
			hist = routineHistory(p.Seed^0xb00b5, n).History
		}
		agg := &cell{}
		for _, sc := range scenarios.Routine() {
			r := &harness.OneShotRunner{History: hist, KBase: kbase}
			agg.merge(runCell(sc, r, p.sub(111)))
		}
		novel := runCell(&scenarios.NovelProtocol{},
			&harness.OneShotRunner{History: hist, KBase: kbase}, p.sub(112))
		t.AddRow(n, eval.Pct(agg.rate(agg.correct)), eval.Pct(novel.rate(novel.correct)), agg.meanTTM())
	}
	return []*eval.Table{t}
}

// ---------------------------------------------------------------------------
// E12 — small models + retrieval (extension of the paper's footnote).
// ---------------------------------------------------------------------------

// kbAsInContext renders the whole knowledge base's rule set as in-context
// rules — the retrieval-augmentation condition: a prompt-side knowledge
// store compensating for a small model's weak parametric recall.
func kbAsInContext(k *kb.KB) []llm.InContextRule {
	var out []llm.InContextRule
	for _, r := range k.Rules() {
		out = append(out, llm.InContextRule{Cause: r.Cause, Effect: r.Effect, Strength: r.Strength})
	}
	return out
}

// E12SmallModels sweeps the model's trained-rule recall — a proxy for
// model capacity ("ongoing trends suggest ... specialized smaller
// models", §4.2 footnote) — with and without the knowledge base supplied
// in-context. Expected shape: low-recall models degrade alone but are
// largely restored by prompt-side knowledge, at a token premium; the
// combination is the RAG deployment the paper's §4.4 embedding section
// presumes.
func E12SmallModels(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()
	workload := []scenarios.Scenario{&scenarios.GrayLink{}, &scenarios.Cascade{Stage: 5}}

	t := eval.NewTable("E12 (extension): model recall x prompt-side knowledge (gray-link + cascade-5)",
		"recall", "in-context KB", "correct", "TTM(m)", "tokens/incident")
	for _, recall := range []float64{1.0, 0.7, 0.5, 0.3} {
		for _, rag := range []bool{false, true} {
			cfg := core.DefaultConfig()
			if rag {
				cfg.InContextRules = kbAsInContext(kbase)
			}
			agg := &cell{}
			for _, sc := range workload {
				r := &harness.HelperRunner{KBase: kbase, Config: cfg, Recall: recall}
				agg.merge(runCell(sc, r, p.sub(121)))
			}
			ragLabel := "no"
			if rag {
				ragLabel = "yes"
			}
			t.AddRow(recall, ragLabel, eval.Pct(agg.rate(agg.correct)), agg.meanTTM(), agg.meanTokens())
		}
	}
	return []*eval.Table{t}
}
