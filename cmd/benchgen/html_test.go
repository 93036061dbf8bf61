package main

// Golden test for the HTML report benchgen writes with -html: the
// bytes must be a pure function of the report data, with no wall-clock
// stamp, so two runs of the same experiments produce identical files.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
)

func buildDemoReport() *eval.HTMLReport {
	report := eval.NewHTMLReport("AI-driven Network Incident Management — experiment tables", 42, 2)
	tb := eval.NewTable("E0 (demo): a fixed table", "arm", "TTM(m)", "mitigated")
	tb.AddRow("assisted-helper", "12.5", eval.Pct(0.9))
	tb.AddRow("unassisted-oce", "48.0", eval.Pct(0.62))
	report.Sections = append(report.Sections, eval.HTMLSection{
		Heading: "e0: demo section",
		Note:    "fixed data, fixed bytes",
		Tables:  []*eval.Table{tb},
		Pre:     "trace: <escaped> & stable",
	})
	return report
}

func TestHTMLReportGolden(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := buildDemoReport().WriteHTML(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	path := filepath.Join("testdata", "report_demo.html")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test ./cmd/benchgen/)", err)
	}
	if got != string(want) {
		t.Errorf("report html drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHTMLReportDeterministic renders twice and pins the absence of any
// wall-clock footer: same bytes, no "generated" stamp.
func TestHTMLReportDeterministic(t *testing.T) {
	t.Parallel()
	var a, b bytes.Buffer
	if err := buildDemoReport().WriteHTML(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildDemoReport().WriteHTML(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same report differ")
	}
	if strings.Contains(a.String(), "generated ") {
		t.Error("report carries a generation stamp")
	}
}
