package tools

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/query"
)

// NLQueryTool is the §4.4 "verifiable LLM-based tool": the model
// translates a natural-language question into the telemetry query DSL,
// a schema verifier gates the output, verification errors are fed back
// to the model for repair, and only verified queries execute. The
// findings report how many repair rounds the pipeline burned — the cost
// of hallucinated fields.
type NLQueryTool struct {
	base
	Model llm.Model
}

// nlQueryAttempts bounds the generate->verify->repair rounds.
const nlQueryAttempts = 3

// NLQueryToolName is the registry name of the tool.
const NLQueryToolName = "nl-query"

// NewNLQueryTool returns the tool over the given model.
func NewNLQueryTool(model llm.Model) *NLQueryTool {
	return &NLQueryTool{
		base:  base{NLQueryToolName, "natural-language telemetry query with verified generation", RiskReadOnly, 1 * time.Minute},
		Model: model,
	}
}

// Invoke implements Tool. args["question"] carries the natural-language
// question.
func (t *NLQueryTool) Invoke(w *netsim.World, args map[string]string) (Result, error) {
	question := args["question"]
	if question == "" {
		return Result{}, fmt.Errorf("nl-query: missing question argument")
	}
	feedback := ""
	var lastErr error
	for attempt := 1; attempt <= nlQueryAttempts; attempt++ {
		resp, err := t.Model.Complete(llm.BuildTextToQuery(question, feedback))
		if err != nil {
			return Result{}, fmt.Errorf("nl-query: model: %w", err)
		}
		dsl, ok := llm.ParseQuery(resp.Content)
		if !ok {
			lastErr = fmt.Errorf("model produced no QUERY line")
			feedback = lastErr.Error()
			continue
		}
		q, err := query.Parse(dsl)
		if err == nil {
			err = query.Verify(q)
		}
		if err != nil {
			// The consistency check caught a bad generation: repair.
			lastErr = err
			feedback = err.Error()
			continue
		}
		rows, err := query.Execute(q, w)
		if err != nil {
			return Result{}, fmt.Errorf("nl-query: execute: %w", err)
		}
		res := Result{
			Raw: fmt.Sprintf("query %q -> %q (%d rows, attempt %d/%d)", question, q, len(rows), attempt, nlQueryAttempts),
		}
		res.Findings = append(res.Findings,
			fmt.Sprintf("query_verified=true attempts=%d dsl=%s", attempt, strings.ReplaceAll(q.String(), " ", "_")))
		const capRows = 10
		for i, r := range rows {
			if i == capRows {
				res.Findings = append(res.Findings, fmt.Sprintf("truncated=true total=%d", len(rows)))
				break
			}
			res.Findings = append(res.Findings, r.String())
		}
		if len(rows) == 0 {
			res.Findings = append(res.Findings, "rows=none")
		}
		return res, nil
	}
	return Result{
		Findings: []string{fmt.Sprintf("query_verified=false attempts=%d", nlQueryAttempts)},
		Raw:      fmt.Sprintf("nl-query: gave up after %d attempts: %v", nlQueryAttempts, lastErr),
	}, nil
}
