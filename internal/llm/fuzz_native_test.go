package llm

import (
	"strings"
	"testing"

	"repro/internal/kb"
)

// Native fuzz targets (run as seed-corpus regressions under plain
// `go test`; explore with `go test -fuzz=FuzzSimLLMComplete ./internal/llm`).

func FuzzSimLLMComplete(f *testing.F) {
	f.Add("TASK: form_hypotheses\nBEAM: 3\nSYMPTOMS: packet_loss")
	f.Add("TASK: plan_test\nHYPOTHESIS: link_overload")
	f.Add("TASK: interpret_test\nHYPOTHESIS: x\nFINDING: x=true")
	f.Add("TASK: plan_mitigation\nROOTCAUSE: link_corruption\nBINDING: $LINK=a--b")
	f.Add("TASK: assess_risk\nACTION: isolate-link|a--b|")
	f.Add("TASK: text_to_query\nQUESTION: which links are hot?")
	f.Add("TASK: form_hypotheses\nRULE: a -> b @ 0.5\nRULE: ->\nBEAM: -3")
	f.Add("garbage\x00with\x01bytes")
	f.Fuzz(func(t *testing.T, prompt string) {
		m := NewSimLLM(kb.Default(), 1)
		m.HallucinationRate = 0.5
		resp, err := m.Complete(Request{Messages: []Message{{Content: prompt}}})
		if err != nil {
			return // unknown/missing TASK errors are contractually fine
		}
		if resp.Usage.PromptTokens < 0 || resp.Usage.CompletionTokens < 0 {
			t.Fatal("negative token usage")
		}
		// Whatever the model said must be parseable without panics.
		ParseHypotheses(resp.Content)
		ParseTestPlan(resp.Content)
		ParseVerdict(resp.Content)
		ParseActions(resp.Content)
		ParseRiskOpinion(resp.Content)
		ParseQuery(resp.Content)
	})
}

func FuzzTruncateTokens(f *testing.F) {
	f.Add("hello world this is a test", 3)
	f.Add("", 0)
	f.Add("one\ntwo\nthree four five", 2)
	f.Fuzz(func(t *testing.T, s string, max int) {
		if max > 1<<20 {
			max = 1 << 20
		}
		out, truncated := TruncateTokens(s, max)
		if len(out) > len(s) {
			t.Fatal("truncation grew the text")
		}
		if truncated && max > 0 && CountTokens(out) > max {
			// One final line of words is kept at word granularity; the
			// 4/3 rounding may exceed max by at most 1.
			if CountTokens(out) > max+1 {
				t.Fatalf("truncated to %d tokens, budget %d", CountTokens(out), max)
			}
		}
	})
}

// countTokensCases are inputs on which CountTokens must agree with
// len(strings.Fields): ASCII and Unicode whitespace, invalid UTF-8.
var countTokensCases = []string{
	"", " ", "a", " a ", "a b  c\t\td\n", "\v\f\r",
	"a\u00a0b", "a\u0085b", "a\u2003b\u3000c", "\u1680x\u2028y\u205f",
	"\u200bzero-width-is-not-space",
	"\xff", "a\xffb", "\xc0 \xc1", "a\xe2\x80", "\xe2\x80\x83", "\xe2\x80 \x83",
	"naïve café 東京 ", "  leading and trailing  ",
}

func FuzzCountTokensMatchesFields(f *testing.F) {
	for _, s := range countTokensCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := len(strings.Fields(s))
		if got, want := CountTokens(s), (n*4+2)/3; got != want {
			t.Fatalf("CountTokens(%q) = %d, want %d (%d fields)", s, got, want, n)
		}
	})
}

// Every ASCII byte, between two letters, splits or joins words exactly
// as strings.Fields decides.
func TestCountTokensEveryASCIIByte(t *testing.T) {
	for c := range 128 {
		s := "ab" + string(rune(c)) + "cd"
		if got, want := CountTokens(s), (len(strings.Fields(s))*4+2)/3; got != want {
			t.Errorf("CountTokens(%q) = %d, want %d", s, got, want)
		}
	}
}
