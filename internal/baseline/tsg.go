package baseline

import (
	"fmt"

	"repro/internal/llm"
)

// This file prices §3's TSG case study: automating a well-structured
// troubleshooting guide with an LLM versus a hard-coded script. Both
// executors follow the same guide and reach the same outcome (RunTSG in
// export_test.go, checked by TestRunTSGScriptAndLLMEquivalentOutcome);
// they differ in cost structure — the LLM path pays integration,
// guard-rail and prompt-design engineering plus per-incident inference,
// and both must be updated on every TSG revision, so "the cost would
// not amortize".

// CostModel parameterizes §3's management-cost accounting.
type CostModel struct {
	EngineerHourly float64 // $ per engineering hour

	// LLM automation path.
	LLMIntegrationHours float64 // wiring the LLM to monitoring APIs
	GuardrailHours      float64 // damage-limiting wrappers
	PromptDesignHours   float64 // per TSG revision: re-prompting so the LLM "exactly follows the TSG"
	Pricing             llm.Pricing

	// Hard-coded script path.
	ScriptInitialHours   float64
	ScriptPerChangeHours float64
}

// DefaultCostModel reflects the paper's qualitative accounting with
// engineering estimates.
func DefaultCostModel() CostModel {
	return CostModel{
		EngineerHourly:       150,
		LLMIntegrationHours:  40,
		GuardrailHours:       24,
		PromptDesignHours:    8,
		Pricing:              llm.DefaultPricing(),
		ScriptInitialHours:   16,
		ScriptPerChangeHours: 6,
	}
}

// CostReport is the total cost of operating one automation path.
type CostReport struct {
	Path            string
	EngineeringCost float64
	InferenceCost   float64
}

// Total returns engineering + inference dollars.
func (c CostReport) Total() float64 { return c.EngineeringCost + c.InferenceCost }

// String renders the report row.
func (c CostReport) String() string {
	return fmt.Sprintf("%-12s eng=$%.0f inference=$%.0f total=$%.0f", c.Path, c.EngineeringCost, c.InferenceCost, c.Total())
}

// LLMTSGCost prices the LLM-automation path: integration + guard-rails up
// front, prompt redesign per TSG revision, inference per incident.
func (m CostModel) LLMTSGCost(tsgRevisions, incidents, tokensPerIncident int) CostReport {
	eng := (m.LLMIntegrationHours + m.GuardrailHours) * m.EngineerHourly
	eng += float64(tsgRevisions) * m.PromptDesignHours * m.EngineerHourly
	infer := float64(incidents*tokensPerIncident) / 1000 * m.Pricing.PromptPer1K
	return CostReport{Path: "llm-tsg", EngineeringCost: eng, InferenceCost: infer}
}

// ScriptCost prices the hard-coded script path.
func (m CostModel) ScriptCost(tsgRevisions int) CostReport {
	eng := m.ScriptInitialHours * m.EngineerHourly
	eng += float64(tsgRevisions) * m.ScriptPerChangeHours * m.EngineerHourly
	return CostReport{Path: "script", EngineeringCost: eng}
}
