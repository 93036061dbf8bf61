package llm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mitigation"
)

// The helper modules and the model speak a line-oriented structured
// protocol. Each request leads with a TASK directive; context follows as
// typed lines. The format is deliberately robust to truncation: every
// line is independently parseable, so a prompt cut at the context window
// degrades the model's information rather than breaking the exchange —
// the same failure mode as a real over-budget prompt.

// Task names.
const (
	TaskFormHypotheses = "form_hypotheses"
	TaskPlanTest       = "plan_test"
	TaskInterpretTest  = "interpret_test"
	TaskPlanMitigation = "plan_mitigation"
	TaskAssessRisk     = "assess_risk"
	TaskTextToQuery    = "text_to_query"
)

// Hypothesis is one candidate cause with the model's confidence and a
// human-readable explanation (the paper requires both so novice OCEs can
// choose what to test).
type Hypothesis struct {
	Concept    string
	Confidence float64
	Reason     string
}

// TestPlan is the model's proposal for verifying a hypothesis.
type TestPlan struct {
	Tool   string
	Args   map[string]string
	Reason string
}

// Verdict is the model's interpretation of tool output against a
// hypothesis.
type Verdict struct {
	Supported  bool
	Confidence float64
	Reason     string
}

// RiskOpinion is the model's qualitative risk assessment.
type RiskOpinion struct {
	Level  string // low|medium|high
	Score  float64
	Reason string
}

// InContextRule carries a causal rule in the prompt (in-context
// learning): the model merges it with its trained knowledge for this
// call only.
type InContextRule struct {
	Cause    string
	Effect   string
	Strength float64
}

// ---------------------------------------------------------------------------
// Prompt builders
// ---------------------------------------------------------------------------

// PromptContext is the evidence block shared by all task prompts.
type PromptContext struct {
	Symptoms  []string
	Confirmed []string
	Rejected  []string
	Bindings  map[string]string // placeholder -> concrete target, e.g. $LINK -> id
	Evidence  []string          // free-text observations, most recent last
	Rules     []InContextRule   // in-context knowledge updates
}

func (c PromptContext) render(b *strings.Builder) {
	writeList := func(key string, vals []string) {
		if len(vals) > 0 {
			fmt.Fprintf(b, "%s: %s\n", key, strings.Join(vals, ", "))
		}
	}
	writeList("SYMPTOMS", c.Symptoms)
	writeList("CONFIRMED", c.Confirmed)
	writeList("REJECTED", c.Rejected)
	if len(c.Bindings) > 0 {
		keys := make([]string, 0, len(c.Bindings))
		for k := range c.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "BINDING: %s=%s\n", k, c.Bindings[k])
		}
	}
	for _, r := range c.Rules {
		fmt.Fprintf(b, "RULE: %s -> %s @ %.2f\n", r.Cause, r.Effect, r.Strength)
	}
	for _, e := range c.Evidence {
		fmt.Fprintf(b, "EVIDENCE: %s\n", strings.ReplaceAll(e, "\n", " | "))
	}
}

// BuildFormHypotheses asks for up to beam candidate causes.
func BuildFormHypotheses(ctx PromptContext, beam int) Request {
	var b strings.Builder
	fmt.Fprintf(&b, "TASK: %s\nBEAM: %d\n", TaskFormHypotheses, beam)
	ctx.render(&b)
	return Request{Messages: []Message{
		{Content: "You are a network incident diagnosis assistant. Respond in the structured line format."},
		{Content: b.String()},
	}}
}

// BuildPlanTest asks how to verify one hypothesis.
func BuildPlanTest(ctx PromptContext, hypothesis string) Request {
	var b strings.Builder
	fmt.Fprintf(&b, "TASK: %s\nHYPOTHESIS: %s\n", TaskPlanTest, hypothesis)
	ctx.render(&b)
	return Request{Messages: []Message{{Content: b.String()}}}
}

// BuildInterpretTest asks whether tool output supports the hypothesis.
// Findings are the tool's structured output lines.
func BuildInterpretTest(ctx PromptContext, hypothesis, tool string, findings []string) Request {
	var b strings.Builder
	fmt.Fprintf(&b, "TASK: %s\nHYPOTHESIS: %s\nTOOL: %s\n", TaskInterpretTest, hypothesis, tool)
	ctx.render(&b)
	for _, f := range findings {
		fmt.Fprintf(&b, "FINDING: %s\n", strings.ReplaceAll(f, "\n", " | "))
	}
	return Request{Messages: []Message{{Content: b.String()}}}
}

// BuildPlanMitigation asks for a mitigation plan for the confirmed root
// cause.
func BuildPlanMitigation(ctx PromptContext, rootCause string) Request {
	var b strings.Builder
	fmt.Fprintf(&b, "TASK: %s\nROOTCAUSE: %s\n", TaskPlanMitigation, rootCause)
	ctx.render(&b)
	return Request{Messages: []Message{{Content: b.String()}}}
}

// BuildAssessRisk asks for a qualitative risk opinion on a plan.
func BuildAssessRisk(ctx PromptContext, actions []mitigation.Action) Request {
	var b strings.Builder
	fmt.Fprintf(&b, "TASK: %s\n", TaskAssessRisk)
	for _, a := range actions {
		fmt.Fprintf(&b, "ACTION: %s|%s|%s\n", a.Kind, a.Target, a.Param)
	}
	ctx.render(&b)
	return Request{Messages: []Message{{Content: b.String()}}}
}

// BuildTextToQuery asks the model to translate a natural-language
// question into the telemetry query DSL. feedback carries the verifier's
// error from a failed previous attempt (the repair loop of §4.4's
// "verifiable LLM-based tools").
func BuildTextToQuery(question, feedback string) Request {
	var b strings.Builder
	fmt.Fprintf(&b, "TASK: %s\nQUESTION: %s\n", TaskTextToQuery, strings.ReplaceAll(question, "\n", " "))
	if feedback != "" {
		fmt.Fprintf(&b, "FEEDBACK: %s\n", strings.ReplaceAll(feedback, "\n", " "))
	}
	return Request{Messages: []Message{{Content: b.String()}}}
}

// ---------------------------------------------------------------------------
// Response parsers
// ---------------------------------------------------------------------------

// kvField extracts key=... from a whitespace-separated field list where
// the value may contain no spaces except for the final freeform key
// ("reason"), which runs to end of line.
func kvField(line, key string) string {
	marker := key + "="
	i := strings.Index(line, marker)
	if i < 0 {
		return ""
	}
	rest := line[i+len(marker):]
	if key == "reason" {
		return strings.TrimSpace(rest)
	}
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		return rest[:j]
	}
	return rest
}

// ParseHypotheses extracts HYPOTHESIS lines from a completion.
func ParseHypotheses(content string) []Hypothesis {
	var out []Hypothesis
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "HYPOTHESIS:") {
			continue
		}
		body := strings.TrimSpace(strings.TrimPrefix(line, "HYPOTHESIS:"))
		h := Hypothesis{
			Concept: kvField(body, "concept"),
			Reason:  kvField(body, "reason"),
		}
		h.Confidence, _ = strconv.ParseFloat(kvField(body, "confidence"), 64)
		if h.Concept != "" {
			out = append(out, h)
		}
	}
	return out
}

// ParseTestPlan extracts the TEST line from a completion. ok is false
// when the model produced no usable plan.
func ParseTestPlan(content string) (TestPlan, bool) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "TEST:") {
			continue
		}
		body := strings.TrimSpace(strings.TrimPrefix(line, "TEST:"))
		tp := TestPlan{
			Tool:   kvField(body, "tool"),
			Reason: kvField(body, "reason"),
			Args:   map[string]string{},
		}
		if args := kvField(body, "args"); args != "" {
			for _, kv := range strings.Split(args, ";") {
				if k, v, ok := strings.Cut(kv, "="); ok {
					tp.Args[k] = v
				}
			}
		}
		if tp.Tool != "" {
			return tp, true
		}
	}
	return TestPlan{}, false
}

// ParseVerdict extracts the VERDICT line. ok is false when absent.
func ParseVerdict(content string) (Verdict, bool) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "VERDICT:") {
			continue
		}
		body := strings.TrimSpace(strings.TrimPrefix(line, "VERDICT:"))
		v := Verdict{Reason: kvField(body, "reason")}
		v.Supported = kvField(body, "supported") == "true"
		v.Confidence, _ = strconv.ParseFloat(kvField(body, "confidence"), 64)
		return v, true
	}
	return Verdict{}, false
}

// ParseActions extracts the actions of ACTION lines
// ("kind|target|param reason=..."); the reason is not kept.
func ParseActions(content string) []mitigation.Action {
	var out []mitigation.Action
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "ACTION:") {
			continue
		}
		body := strings.TrimSpace(strings.TrimPrefix(line, "ACTION:"))
		spec, _, _ := strings.Cut(body, " reason=")
		parts := strings.SplitN(spec, "|", 3)
		if len(parts) < 2 {
			continue
		}
		a := mitigation.Action{Kind: mitigation.ActionKind(parts[0]), Target: parts[1]}
		if len(parts) == 3 {
			a.Param = parts[2]
		}
		out = append(out, a)
	}
	return out
}

// ParseQuery extracts the QUERY line (the generated DSL text). ok is
// false when absent.
func ParseQuery(content string) (string, bool) {
	for _, line := range strings.Split(content, "\n") {
		if strings.HasPrefix(line, "QUERY:") {
			q := strings.TrimSpace(strings.TrimPrefix(line, "QUERY:"))
			if q != "" {
				return q, true
			}
		}
	}
	return "", false
}

// ParseRiskOpinion extracts the RISK line. ok is false when absent.
func ParseRiskOpinion(content string) (RiskOpinion, bool) {
	for _, line := range strings.Split(content, "\n") {
		if !strings.HasPrefix(line, "RISK:") {
			continue
		}
		body := strings.TrimSpace(strings.TrimPrefix(line, "RISK:"))
		r := RiskOpinion{Level: kvField(body, "level"), Reason: kvField(body, "reason")}
		r.Score, _ = strconv.ParseFloat(kvField(body, "score"), 64)
		return r, true
	}
	return RiskOpinion{}, false
}
