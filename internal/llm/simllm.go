package llm

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kb"
	"repro/internal/mitigation"
	"repro/internal/randsrc"
)

// SimLLM simulates an instruction-following LLM for incident management.
// Its "weights" are a knowledge-base snapshot (fine-tuning swaps the
// snapshot); RULE lines in the prompt act as in-context learning for a
// single call. See the package comment for why this substitution is
// faithful to the paper's setting.
type SimLLM struct {
	ModelName string
	KBase     *kb.KB

	// Window is the context window in tokens; prompts beyond it are
	// truncated tail-first before the model reads them.
	Window int

	// HallucinationRate is the per-decision probability of a confident
	// fabrication: an invented cause, a flipped verdict, a corrupted
	// mitigation target, or an understated risk.
	HallucinationRate float64

	// Temperature scales multiplicative noise on hypothesis scores.
	Temperature float64

	// Recall in (0,1] models model capacity: on each call the model
	// "remembers" only this fraction of its trained causal rules
	// (in-context rules are always visible — they are in the prompt).
	// 1.0 (default via NewSimLLM) is a frontier model; smaller values
	// emulate the specialized small models the paper's footnote
	// anticipates.
	Recall float64

	Rng *rand.Rand

	// Latency model: Base + PerToken * total tokens.
	LatencyBase     time.Duration
	LatencyPerToken time.Duration

	Pricing Pricing
	Meter   Meter
}

// NewSimLLM returns a model over the knowledge base with sane defaults:
// an 8K window, mild temperature, and zero hallucination (experiments
// dial it up explicitly).
func NewSimLLM(kbase *kb.KB, seed int64) *SimLLM {
	return &SimLLM{
		ModelName:       "simllm-1",
		KBase:           kbase,
		Window:          8192,
		Temperature:     0.05,
		Recall:          1.0,
		Rng:             randsrc.New(seed),
		LatencyBase:     2 * time.Second,
		LatencyPerToken: 20 * time.Millisecond,
		Pricing:         DefaultPricing(),
	}
}

// Name implements Model.
func (m *SimLLM) Name() string { return m.ModelName }

// ContextWindow implements Model.
func (m *SimLLM) ContextWindow() int { return m.Window }

// FineTune swaps the model's knowledge snapshot — the paper's "pays an
// up-front cost" adaptation path. The returned token count is the
// modeled training cost (proportional to corpus size).
func (m *SimLLM) FineTune(kbase *kb.KB) int {
	m.KBase = kbase
	cost := 0
	for _, r := range kbase.Rules() {
		cost += CountTokens(r.Cause+" "+r.Effect+" "+r.Note) + 8
	}
	m.Meter.Prompt += cost
	return cost
}

// fabricatedCauses is what hallucinated hypotheses look like: plausible
// jargon with no grounding in the deployment.
var fabricatedCauses = []string{
	"dns_misconfiguration",
	"bgp_hijack",
	"cosmic_ray_bitflip",
	"firmware_rollback_loop",
	"tenant_ddos",
}

// prompt is the parsed request.
type prompt struct {
	task       string
	beam       int
	symptoms   []string
	confirmed  []string
	rejected   []string
	bindings   map[string]string
	rules      []InContextRule
	evidence   []string
	hypothesis string
	tool       string
	findings   []string
	rootCause  string
	actions    []mitigation.Action
	question   string
	feedback   string
}

func parsePrompt(text string) prompt {
	p := prompt{bindings: map[string]string{}}
	list := func(s string) []string {
		var out []string
		for _, f := range strings.Split(s, ",") {
			if f = strings.TrimSpace(f); f != "" {
				out = append(out, f)
			}
		}
		return out
	}
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		switch key {
		case "TASK":
			p.task = val
		case "BEAM":
			p.beam, _ = strconv.Atoi(val)
		case "SYMPTOMS":
			p.symptoms = list(val)
		case "CONFIRMED":
			p.confirmed = list(val)
		case "REJECTED":
			p.rejected = list(val)
		case "BINDING":
			if k, v, ok2 := strings.Cut(val, "="); ok2 {
				p.bindings[strings.TrimSpace(k)] = strings.TrimSpace(v)
			}
		case "RULE":
			var r InContextRule
			if parts := strings.Split(val, "->"); len(parts) == 2 {
				r.Cause = strings.TrimSpace(parts[0])
				rest := strings.TrimSpace(parts[1])
				if eff, s, ok2 := strings.Cut(rest, "@"); ok2 {
					r.Effect = strings.TrimSpace(eff)
					r.Strength, _ = strconv.ParseFloat(strings.TrimSpace(s), 64)
				} else {
					r.Effect = rest
					r.Strength = 0.5
				}
				p.rules = append(p.rules, r)
			}
		case "EVIDENCE":
			p.evidence = append(p.evidence, val)
		case "HYPOTHESIS":
			p.hypothesis = val
		case "TOOL":
			p.tool = val
		case "FINDING":
			p.findings = append(p.findings, val)
		case "ROOTCAUSE":
			p.rootCause = val
		case "QUESTION":
			p.question = val
		case "FEEDBACK":
			p.feedback = val
		case "ACTION":
			parts := strings.SplitN(val, "|", 3)
			if len(parts) >= 2 {
				a := mitigation.Action{Kind: mitigation.ActionKind(parts[0]), Target: parts[1]}
				if len(parts) == 3 {
					a.Param = parts[2]
				}
				p.actions = append(p.actions, a)
			}
		}
	}
	return p
}

// Complete implements Model.
func (m *SimLLM) Complete(req Request) (Response, error) {
	text := req.Text()
	text, truncated := TruncateTokens(text, m.Window)
	p := parsePrompt(text)

	var content string
	switch p.task {
	case TaskFormHypotheses:
		content = m.formHypotheses(p)
	case TaskPlanTest:
		content = m.planTest(p)
	case TaskInterpretTest:
		content = m.interpretTest(p)
	case TaskPlanMitigation:
		content = m.planMitigation(p)
	case TaskAssessRisk:
		content = m.assessRisk(p)
	case TaskTextToQuery:
		content = m.textToQuery(p)
	case "":
		return Response{}, fmt.Errorf("llm: prompt has no TASK directive (truncated=%v)", truncated)
	default:
		return Response{}, fmt.Errorf("llm: unknown task %q", p.task)
	}

	resp := Response{
		Content:   content,
		Truncated: truncated,
		Usage: Usage{
			PromptTokens:     CountTokens(text),
			CompletionTokens: CountTokens(content),
		},
	}
	resp.Latency = m.LatencyBase + time.Duration(resp.Usage.Total())*m.LatencyPerToken
	m.Meter.Record(resp, m.Pricing)
	return resp, nil
}

// evidenceMentions reports whether any evidence line mentions the
// concept (matching the hyphenated form alert rules use).
func evidenceMentions(evidence []string, concept string) bool {
	hyph := strings.ReplaceAll(concept, "_", "-")
	for _, e := range evidence {
		if strings.Contains(e, concept) || strings.Contains(e, hyph) {
			return true
		}
	}
	return false
}

func (m *SimLLM) hallucinate() bool {
	return m.HallucinationRate > 0 && m.Rng.Float64() < m.HallucinationRate
}

// causesOf merges trained rules with in-context rules for one effect.
// Trained rules are subject to the model's recall; prompt rules are not.
func (m *SimLLM) causesOf(effect string, inCtx []InContextRule) []kb.Rule {
	trained := m.KBase.CausesOf(effect)
	rules := trained
	if m.Recall > 0 && m.Recall < 1 {
		rules = rules[:0:0]
		for _, r := range trained {
			if m.Rng.Float64() < m.Recall {
				rules = append(rules, r)
			}
		}
	}
	for _, r := range inCtx {
		if r.Effect == effect {
			rules = append(rules, kb.Rule{
				ID: "ctx:" + r.Cause + "->" + r.Effect, Cause: r.Cause, Effect: r.Effect,
				Strength: r.Strength, Note: "in-context update",
			})
		}
	}
	return rules
}

func (m *SimLLM) formHypotheses(p prompt) string {
	beam := p.beam
	if beam <= 0 {
		beam = 3
	}
	// Backward chaining: explain the most recently confirmed concept if
	// any, otherwise the symptoms.
	frontier := p.symptoms
	if len(p.confirmed) > 0 {
		frontier = p.confirmed[len(p.confirmed)-1:]
	}
	exclude := map[string]bool{}
	for _, c := range append(append(append([]string{}, p.confirmed...), p.rejected...), p.symptoms...) {
		exclude[c] = true
	}

	type cand struct {
		concept string
		score   float64
		reason  string
	}
	best := map[string]cand{}
	for _, f := range frontier {
		for _, r := range m.causesOf(f, p.rules) {
			if exclude[r.Cause] {
				continue
			}
			prior := 0.1
			if c, ok := m.KBase.ConceptByID(r.Cause); ok {
				prior = 0.1 + c.Prior
			}
			score := r.Strength * (0.4 + prior)
			// Evidence that literally mentions the candidate (alert
			// digests name their rule, e.g. "device-down") steers the
			// model, as retrieval-grounded prompts steer a real LLM.
			if evidenceMentions(p.evidence, r.Cause) {
				score *= 1.5
			}
			if m.Temperature > 0 {
				score *= 1 + m.Temperature*(2*m.Rng.Float64()-1)
			}
			reason := fmt.Sprintf("%s can cause %s (strength %.2f)", r.Cause, r.Effect, r.Strength)
			if r.Note != "" {
				reason += ": " + r.Note
			}
			if old, ok := best[r.Cause]; !ok || score > old.score {
				best[r.Cause] = cand{concept: r.Cause, score: score, reason: reason}
			}
		}
	}
	cands := make([]cand, 0, len(best))
	for _, c := range best {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].concept < cands[j].concept
	})
	if len(cands) > beam {
		cands = cands[:beam]
	}
	if m.hallucinate() {
		fab := fabricatedCauses[m.Rng.Intn(len(fabricatedCauses))]
		cands = append([]cand{{
			concept: fab, score: 0.88,
			reason: "this strongly resembles a " + strings.ReplaceAll(fab, "_", " ") + " pattern seen industry-wide",
		}}, cands...)
		if len(cands) > beam {
			cands = cands[:beam]
		}
	}
	var b strings.Builder
	for _, c := range cands {
		conf := c.score
		if conf > 0.97 {
			conf = 0.97
		}
		fmt.Fprintf(&b, "HYPOTHESIS: concept=%s confidence=%.2f reason=%s\n", c.concept, conf, c.reason)
	}
	if b.Len() == 0 {
		b.WriteString("HYPOTHESIS: concept=escalation_needed confidence=0.20 reason=no known cause explains the current evidence\n")
	}
	return b.String()
}

// defaultToolArgs are the argument templates the model has learned per
// tool from TSGs and tool documentation.
var defaultToolArgs = map[string]string{
	kb.ToolSyslog:           "sincemin=120;sev=error",
	kb.ToolLinkUtil:         "top=10",
	kb.ToolRecentChanges:    "sincemin=20160",
	kb.ToolSimilarIncidents: "k=3",
	kb.ToolMonitorCheck:     "monitor=pingmesh",
	kb.ToolAskCustomer:      "question=please share a packet capture of the affected traffic",
}

func (m *SimLLM) planTest(p prompt) string {
	c, ok := m.KBase.ConceptByID(p.hypothesis)
	if !ok || c.TestTool == "" {
		return fmt.Sprintf("NOTEST: no known procedure verifies %q\n", p.hypothesis)
	}
	tool := c.TestTool
	if m.hallucinate() {
		tool = "deep-" + tool + "-oracle" // confidently invented tooling
	}
	args := defaultToolArgs[tool]
	line := fmt.Sprintf("TEST: tool=%s", tool)
	if args != "" {
		line += " args=" + args
	}
	line += fmt.Sprintf(" reason=%s is the standard check for %s", tool, p.hypothesis)
	return line + "\n"
}

func (m *SimLLM) interpretTest(p prompt) string {
	supported := false
	confidence := 0.6
	reason := fmt.Sprintf("no finding mentions %s; absence of evidence after a targeted query", p.hypothesis)
	for _, f := range p.findings {
		if strings.Contains(f, p.hypothesis+"=true") {
			supported, confidence = true, 0.9
			reason = "tool output confirms " + p.hypothesis
			break
		}
		if strings.Contains(f, p.hypothesis+"=false") {
			supported, confidence = false, 0.9
			reason = "tool output explicitly rules out " + p.hypothesis
			break
		}
	}
	if m.hallucinate() {
		supported = !supported
		confidence = 0.85
		reason = "re-reading the output, the signature actually indicates the opposite"
	}
	return fmt.Sprintf("VERDICT: supported=%v confidence=%.2f reason=%s\n", supported, confidence, reason)
}

func (m *SimLLM) planMitigation(p prompt) string {
	templates := m.KBase.Mitigations(p.rootCause)
	if len(templates) == 0 {
		return "ACTION: escalate|SWAT| reason=no mitigation known for " + p.rootCause + "\n"
	}
	var b strings.Builder
	for _, t := range templates {
		targets := []string{t.Target}
		if bound, ok := p.bindings[t.Target]; ok {
			targets = strings.Split(bound, ",")
		}
		for _, target := range targets {
			target = strings.TrimSpace(target)
			if target == "" {
				continue
			}
			if m.hallucinate() {
				target = corruptTarget(target)
			}
			param := t.Param
			if bound, ok := p.bindings[param]; ok {
				param = bound
			}
			fmt.Fprintf(&b, "ACTION: %s|%s|%s reason=standard mitigation for %s\n", t.Kind, target, param, p.rootCause)
		}
	}
	return b.String()
}

// corruptTarget produces a plausible-but-wrong identifier: the classic
// confident hallucination of a device name.
func corruptTarget(t string) string {
	if strings.HasPrefix(t, "$") {
		return t
	}
	if i := strings.LastIndexByte(t, '0'); i >= 0 {
		return t[:i] + "9" + t[i+1:]
	}
	return t + "-b"
}

// textToQuery translates a natural-language telemetry question into the
// query DSL by keyword association — the way an instruction-tuned model
// pattern-matches text-to-SQL. Hallucination substitutes a plausible but
// non-existent field; with verifier feedback present the model corrects
// itself (unless it hallucinates again).
func (m *SimLLM) textToQuery(p prompt) string {
	q := strings.ToLower(p.question)
	has := func(words ...string) bool {
		for _, w := range words {
			if strings.Contains(q, w) {
				return true
			}
		}
		return false
	}
	entity := "links"
	switch {
	case has("device", "switch", "router", "node"):
		entity = "devices"
	case has("service", "tenant", "customer traffic"):
		entity = "services"
	case has("log", "event", "syslog", "message"):
		entity = "events"
	}
	var conds []string
	orderBy := ""
	switch entity {
	case "links":
		if has("hot", "overload", "util", "congest", "saturat") {
			conds = append(conds, "util > 0.9")
			orderBy = "util"
		}
		if has("loss", "drop", "discard") {
			conds = append(conds, "loss > 0.01")
			if orderBy == "" {
				orderBy = "loss"
			}
		}
		if has("down") {
			conds = append(conds, "down = true")
		}
		if has("isolat") {
			conds = append(conds, "isolated = true")
		}
	case "devices":
		if has("down", "unhealthy", "crash", "wedge", "fail") {
			conds = append(conds, "healthy = false")
		}
		if has("isolat") {
			conds = append(conds, "isolated = true")
		}
	case "services":
		if has("loss", "impact", "degrad") {
			conds = append(conds, "loss > 0.01")
			orderBy = "loss"
		}
		if has("unrouted", "blackhol") {
			conds = append(conds, "unrouted > 0")
		}
	case "events":
		if has("critical", "fatal") {
			conds = append(conds, "severity = crit")
		} else if has("error") {
			conds = append(conds, "severity = error")
		}
		if has("recent", "last hour") {
			conds = append(conds, "age_min < 60")
		}
	}
	dsl := entity
	if len(conds) > 0 {
		dsl += " where " + strings.Join(conds, " and ")
	}
	if orderBy != "" {
		dsl += " order by " + orderBy + " desc"
	}
	dsl += " limit 10"
	if m.hallucinate() {
		// Confidently invents a field the schema does not have.
		dsl = strings.Replace(dsl, "util", "bandwidth_pct", 1)
		dsl = strings.Replace(dsl, "loss", "errors_pm", 1)
		if !strings.Contains(dsl, "where") {
			dsl = entity + " where throughput > 0.5 limit 10"
		}
	}
	return "QUERY: " + dsl + "\n"
}

// kindRisk is the model's learned base risk per action kind.
var kindRisk = map[mitigation.ActionKind]float64{
	mitigation.IsolateLink:      0.30,
	mitigation.DeisolateLink:    0.30,
	mitigation.IsolateDevice:    0.45,
	mitigation.DeisolateDevice:  0.35,
	mitigation.RestartDevice:    0.25,
	mitigation.RollbackChange:   0.25,
	mitigation.DisableProtocol:  0.40,
	mitigation.EnableProtocol:   0.40,
	mitigation.OverrideWAN:      0.60,
	mitigation.MoveService:      0.35,
	mitigation.RateLimitService: 0.30,
	mitigation.RepairMonitor:    0.05,
	mitigation.Escalate:         0.02,
	mitigation.NoOp:             0,
}

func (m *SimLLM) assessRisk(p prompt) string {
	if len(p.actions) == 0 {
		return "RISK: level=low score=0.00 reason=empty plan has no blast radius\n"
	}
	keep := 1.0
	worst := ""
	worstRisk := 0.0
	for _, a := range p.actions {
		r := kindRisk[a.Kind]
		// Components with many dependents raise the stakes.
		if comp, ok := m.KBase.ComponentByName(a.Target); ok {
			r += 0.05 * float64(len(m.KBase.Dependents(comp.Name)))
		}
		if r > 1 {
			r = 1
		}
		if r > worstRisk {
			worstRisk, worst = r, a.String()
		}
		keep *= 1 - r
	}
	score := 1 - keep
	if m.hallucinate() {
		score *= 0.25 // confidently understates the danger
	}
	level := "low"
	switch {
	case score >= 0.66:
		level = "high"
	case score >= 0.33:
		level = "medium"
	}
	return fmt.Sprintf("RISK: level=%s score=%.2f reason=dominated by %s; reasoning over component dependencies\n", level, score, worst)
}
