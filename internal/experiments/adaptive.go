package experiments

// ---------------------------------------------------------------------------
// E18 — adaptive learning loop (extension): the data lake's promotion
// gate, measured. A repeat-class incident ladder (the same cascade
// class day after day) feeds each day's sessions with a corpus promoted
// from the previous days' lake entries. Three arms differ only in the
// promotion policy:
//
//   frozen    — no feedback: every day runs on the empty corpus.
//   verified  — lake.PolicyVerified: only session-confirmed causal
//               chains enter the corpus, at constant strength. The
//               corpus converges to a clean fixed point, so time-to-
//               mitigate is monotonically non-increasing day over day.
//   always    — lake.PolicyAlways: every proposed hypothesis edge is
//               ingested at its stated confidence, confirmed or not.
//               Fabricated causes accumulate and poison later
//               retrieval; the arm degrades below its own day one.
//
// Every (day, trial) cell reuses the same trial seed across days and
// arms, so the corpus is the only moving part — any TTM difference is
// the promotion policy's doing, and tables stay byte-identical at any
// worker count.
// ---------------------------------------------------------------------------

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// e18Days is the ladder length: long enough for the verified arm to hit
// its fixed point and for the always arm's poison to compound.
const e18Days = 6

// e18Model pins the operating point: a mid-capacity model (imperfect
// recall, a real hallucination rate) supervised by a mid-expertise OCE.
// At full recall and expertise the corpus has nothing to add and the
// fabrications nothing to exploit; this is the regime §5's guard claim
// is about.
const (
	e18Recall        = 0.7
	e18Hallucination = 0.15
	e18Expertise     = 0.6
)

// e18Arm pairs a display label with the promotion policy; frozen is
// modelled as "never promote" rather than a third policy.
type e18Arm struct {
	name   string
	policy lake.Policy
	frozen bool
}

func e18Arms() []e18Arm {
	return []e18Arm{
		{name: "frozen", frozen: true},
		{name: "verified", policy: lake.PolicyVerified},
		{name: "always", policy: lake.PolicyAlways},
	}
}

// e18DayStat is one (day, arm) cell of the ladder, in the numeric form
// the experiment tests assert against before any table formatting.
type e18DayStat struct {
	Day       int     // 1-based
	Arm       string  //
	MeanTTM   float64 // penalized mean, minutes
	Mitigated int     // sessions mitigated
	Trials    int     //
	Rules     int     // corpus rules the day's sessions ran with
	Records   int     // retrieval-history records likewise
}

// e18Run executes the full ladder and returns the per-day stats in
// (arm, day) order. Split from the table rendering so tests can check
// monotonicity and degradation on the numbers themselves.
func e18Run(p Params) []e18DayStat {
	p = p.withDefaults()
	kbase := currentKB()
	sc := scenarios.Cascade{Stage: 5}

	type trialOut struct {
		res   harness.Result
		entry lake.Entry
	}

	var stats []e18DayStat
	for _, arm := range e18Arms() {
		corpus := lake.Corpus{History: kb.NewHistory()}
		var entries []lake.Entry
		for day := 1; day <= e18Days; day++ {
			rules, hist := corpus.Rules, corpus.History
			var recs []*obs.Recorder
			if p.Obs != nil {
				recs = make([]*obs.Recorder, p.Trials)
			}
			// The same seed base every day and arm: trial i sees the same
			// incident instance and the same model randomness on every
			// rung, so only the corpus moves.
			trials := parallel.RunTrials(p.Trials, p.Workers, p.Seed+181, func(s int64, i int) trialOut {
				in := sc.Build(randsrc.New(s))
				model := llm.NewSimLLM(kbase, s)
				model.Recall = e18Recall
				model.HallucinationRate = e18Hallucination
				cfg := core.DefaultConfig()
				cfg.InContextRules = rules
				var o obs.Observer
				if recs != nil {
					rec := obs.AcquireRecorder(fmt.Sprintf("e18/%s/d%d/%04d", arm.name, day, i))
					recs[i] = rec
					o = rec
				}
				res, out := harness.RunSession(model, kbase, cfg, e18Expertise, hist, in, s, o)
				// Day-independent IDs: a repeat of trial i refreshes its
				// lake record instead of minting a new incident, which is
				// what lets the verified corpus reach a fixed point.
				id := fmt.Sprintf("e18-%s-%04d", arm.name, i)
				return trialOut{res, lake.NewEntry(id, "iterative-helper", in, res, s, out.Events)}
			})
			for _, rec := range recs {
				if rec != nil {
					p.Obs.Absorb(rec)
					rec.Release()
				}
			}

			st := e18DayStat{Day: day, Arm: arm.name, Rules: len(rules)}
			if hist != nil {
				st.Records = len(hist.All())
			}
			var ttm float64
			for _, tr := range trials {
				if tr.Err != nil {
					// A crashed trial counts as escalated at the full
					// penalty so a panic can't silently flatter an arm.
					ttm += harness.EscalationPenalty.Minutes()
					st.Trials++
					continue
				}
				st.Trials++
				ttm += tr.Value.res.PenalizedTTM().Minutes()
				if tr.Value.res.Mitigated {
					st.Mitigated++
				}
				entries = append(entries, tr.Value.entry)
			}
			if st.Trials > 0 {
				st.MeanTTM = ttm / float64(st.Trials)
			}
			stats = append(stats, st)

			if !arm.frozen {
				next, err := lake.Promote(entries, arm.policy)
				if err != nil {
					// The codec round trip inside Promote cannot fail on
					// session-produced entries; freeze the corpus if it
					// somehow does so the ladder still completes.
					continue
				}
				corpus = next
			}
		}
	}
	return stats
}

// E18AdaptiveLoop renders the ladder: per-day mean TTM, mitigation
// count and corpus size for each promotion policy.
func E18AdaptiveLoop(p Params) []*eval.Table {
	stats := e18Run(p)
	t := eval.NewTable("E18 (extension): adaptive loop — corpus promotion policy vs repeat-class TTM",
		"day", "arm", "meanTTM(m)", "mitigated", "rules", "records")
	for _, st := range stats {
		t.AddRow(st.Day, st.Arm, fmt.Sprintf("%.1f", st.MeanTTM),
			fmt.Sprintf("%d/%d", st.Mitigated, st.Trials), st.Rules, st.Records)
	}
	return []*eval.Table{t}
}
