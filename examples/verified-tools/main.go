// Verified LLM tools: §4.4's research direction as working code. The
// model translates natural-language questions into a telemetry query
// DSL; a schema verifier gates every generation; verification errors are
// fed back for repair; hallucinated fields never execute.
//
// Run with:
//
//	go run ./examples/verified-tools
package main

import (
	"fmt"
	"log"

	"repro/internal/kb"
	"repro/internal/llm"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
	"repro/internal/tools"
)

func main() {
	// A live incident to interrogate: the Tokyo-style protocol bug.
	in := (&scenarios.NovelProtocol{}).Build(randsrc.New(1))
	fmt.Println("incident:", in.Incident.Title)

	questions := []string{
		"which links are hot right now?",
		"list unhealthy devices",
		"any critical log events with fatal errors?",
		"which services have loss impact?",
	}

	// First with a reliable model.
	model := llm.NewSimLLM(kb.Default(), 1)
	tool := tools.NewNLQueryTool(model)
	fmt.Println("\n--- reliable model ---")
	ask(tool, in, questions)

	// Then with a heavily hallucinating model: generations with invented
	// fields are caught by the verifier and repaired; nothing unverified
	// ever runs.
	bad := llm.NewSimLLM(kb.Default(), 2)
	bad.HallucinationRate = 0.7
	fmt.Println("\n--- hallucinating model (rate 0.7), verifier + repair loop ---")
	ask(tools.NewNLQueryTool(bad), in, questions)
}

func ask(tool *tools.NLQueryTool, in *scenarios.Instance, questions []string) {
	for _, q := range questions {
		res, err := tool.Invoke(in.World, map[string]string{"question": q})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nQ: %s\n   %s\n", q, res.Raw)
		for i, f := range res.Findings {
			if i >= 4 {
				fmt.Printf("   ... (%d more findings)\n", len(res.Findings)-i)
				break
			}
			fmt.Println("   ", f)
		}
	}
}
