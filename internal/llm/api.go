// Package llm provides the language-model boundary of the OCE-helper: a
// chat-completions style API, token and cost accounting, and SimLLM — a
// deterministic simulated LLM that stands in for GPT-4/PaLM-class models.
//
// SimLLM is not a language model; it is a causal-reasoning engine over a
// knowledge-base "training corpus" wrapped in an LLM-shaped interface
// with LLM-shaped failure modes: a bounded context window (text beyond it
// is silently truncated before the model "reads" it), stochastic
// hallucination (fabricated causes, flipped verdicts, corrupted targets),
// temperature noise, per-token latency, and quadratic compute cost. The
// paper's framework claims depend on exactly these properties — not on
// natural-language fluency — so the substitution preserves the behaviour
// under study while keeping experiments deterministic and offline.
package llm

import (
	"fmt"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// Message is one chat turn.
type Message struct {
	Content string
}

// Request is a chat-completion request.
type Request struct {
	Messages []Message
}

// Text renders the request as the flat prompt the model consumes.
func (r Request) Text() string {
	var b strings.Builder
	for i, m := range r.Messages {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(m.Content)
	}
	return b.String()
}

// Usage counts tokens for one call.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
}

// Total returns prompt + completion tokens.
func (u Usage) Total() int { return u.PromptTokens + u.CompletionTokens }

// Response is a chat completion.
type Response struct {
	Content string
	Usage   Usage
	Latency time.Duration
}

// Model is the LLM interface the helper modules program against. A
// production deployment would implement it over a hosted API; the
// experiments implement it with SimLLM.
type Model interface {
	Name() string
	ContextWindow() int
	Complete(req Request) (Response, error)
}

// CountTokens approximates tokenization at the conventional 4/3 tokens
// per word (the paper's "32K tokens ~= 24K words" ratio for GPT-4). A
// word is what strings.Fields returns: a maximal run of runes that are
// not unicode.IsSpace, with invalid UTF-8 counting as non-space. It
// counts word starts in one pass instead of building the slice, with
// strings.Fields' table lookup for ASCII bytes.
func CountTokens(s string) int {
	n, inWord := 0, false
	for i := 0; i < len(s); {
		var space bool
		if c := s[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
			i++
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
			i += size
		}
		if !space && !inWord {
			n++
		}
		inWord = !space
	}
	return (n*4 + 2) / 3
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// TruncateTokens cuts s to at most maxTokens, dropping trailing lines
// first and then trailing words. It reports whether anything was cut.
// Dropping from the tail mirrors how retrieval frameworks budget prompts:
// callers put load-bearing instructions first and best-ranked context
// earliest, and overflow falls off the end.
func TruncateTokens(s string, maxTokens int) (string, bool) {
	if maxTokens <= 0 || CountTokens(s) <= maxTokens {
		return s, false
	}
	lines := strings.Split(s, "\n")
	for len(lines) > 1 {
		lines = lines[:len(lines)-1]
		if CountTokens(strings.Join(lines, "\n")) <= maxTokens {
			return strings.Join(lines, "\n"), true
		}
	}
	words := strings.Fields(lines[0])
	keep := maxTokens * 3 / 4
	if keep < 1 {
		keep = 1
	}
	if keep > len(words) {
		keep = len(words)
	}
	return strings.Join(words[:keep], " "), true
}

// Pricing models inference cost. FlopUnitPerTok2 captures the quadratic
// attention cost the paper calls out ("computational complexity grows
// quadratically with token count").
type Pricing struct {
	PromptPer1K     float64 // $ per 1000 prompt tokens
	CompletionPer1K float64 // $ per 1000 completion tokens
	FlopUnitPerTok2 float64 // compute units per (total tokens)^2
}

// DefaultPricing approximates 2023 GPT-4 32K pricing.
func DefaultPricing() Pricing {
	return Pricing{PromptPer1K: 0.06, CompletionPer1K: 0.12, FlopUnitPerTok2: 1e-6}
}

// Meter accumulates usage across calls.
type Meter struct {
	Calls       int
	Prompt      int
	Completion  int
	ComputeUnit float64
	WallLatency time.Duration
}

// Record adds one response's usage.
func (m *Meter) Record(r Response, p Pricing) {
	m.Calls++
	m.Prompt += r.Usage.PromptTokens
	m.Completion += r.Usage.CompletionTokens
	t := float64(r.Usage.Total())
	m.ComputeUnit += p.FlopUnitPerTok2 * t * t
	m.WallLatency += r.Latency
}

// DollarCost prices the accumulated usage.
func (m *Meter) DollarCost(p Pricing) float64 {
	return float64(m.Prompt)/1000*p.PromptPer1K + float64(m.Completion)/1000*p.CompletionPer1K
}

// Add merges another meter into m.
func (m *Meter) Add(o Meter) {
	m.Calls += o.Calls
	m.Prompt += o.Prompt
	m.Completion += o.Completion
	m.ComputeUnit += o.ComputeUnit
	m.WallLatency += o.WallLatency
}

// String summarizes the meter.
func (m *Meter) String() string {
	return fmt.Sprintf("calls=%d prompt=%d completion=%d compute=%.2f", m.Calls, m.Prompt, m.Completion, m.ComputeUnit)
}
