package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
)

// displayKinds is the set of event types rendered in the CLI trace:
// exactly the session trace step kinds. Structural events (llm-call,
// hypothesis-proposed, tool-call and friends) carry measurement data and
// never render, which is what keeps SessionTrace.String() byte-identical
// to the historical flat-string trace.
var displayKinds = map[obs.Type]bool{
	obs.Type(StepHypotheses):   true,
	obs.Type(StepApproval):     true,
	obs.Type(StepVeto):         true,
	obs.Type(StepTestPlanned):  true,
	obs.Type(StepToolInvoked):  true,
	obs.Type(StepInterpreted):  true,
	obs.Type(StepOCECorrected): true,
	obs.Type(StepPlanProposed): true,
	obs.Type(StepRiskAssessed): true,
	obs.Type(StepPlanRejected): true,
	obs.Type(StepExecuted):     true,
	obs.Type(StepVerified):     true,
	obs.Type(StepEscalated):    true,
	obs.Type(StepRetry):        true,
	obs.Type(StepQuarantine):   true,
	obs.Type(StepBreaker):      true,
	obs.Type(StepNote):         true,
}

// SessionTrace is the structured session audit log: the full typed event
// stream, with a renderer for CLI display. It replaces the flat string
// the framework used to hand back — callers that want the old text call
// String(); callers that want data (timestamps, dispositions, costs)
// walk Events directly or filter with Display.
type SessionTrace struct {
	// Events is the complete stream in emission order, structural events
	// included.
	Events []obs.Event
}

// NewSessionTrace wraps a completed session's event stream.
func NewSessionTrace(out *Outcome) SessionTrace {
	return SessionTrace{Events: out.Events}
}

// String renders the trace for CLI display: one line per display event
// with its simulated time, round, kind and detail.
func (t SessionTrace) String() string {
	var b strings.Builder
	for _, e := range t.Events {
		if !displayKinds[e.Type] {
			continue
		}
		fmt.Fprintf(&b, "[%7s r%02d] %-14s %s\n", formatDur(e.At), e.Round, e.Type, e.Detail)
	}
	return b.String()
}
