// Package replayer implements §3's scale-up evaluation path: generate a
// historical incident corpus (operators resolving incidents unassisted,
// with their original TTMs recorded), then replay those incidents
// through a helper and compare.
//
// Replay is only exact where the helper's mitigation matches the one the
// operator originally used; the harness therefore reports (a) TTM
// savings over matching incidents, (b) the mismatch fraction, and (c)
// for mismatches, the paper's proposed conditional estimate — the TTM
// distribution of past incidents that used the helper's mitigation.
package replayer

import (
	"fmt"
	"time"

	"repro/internal/embed"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/mitigation"
	"repro/internal/obs"
	"repro/internal/oce"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
	"repro/internal/tools"
)

// CorpusItem is one historical incident: the record plus enough
// information to regenerate the identical instance.
type CorpusItem struct {
	Record   kb.IncidentRecord
	Scenario string
	Seed     int64
}

// Corpus is a generated incident history.
type Corpus struct {
	History *kb.History
	Items   []CorpusItem
}

// Options parameterize corpus generation.
type Options struct {
	N    int
	Mix  []scenarios.Scenario // default scenarios.Routine()
	Seed int64
	// KBase is what the resolving engineers knew; defaults to the
	// current corpus (Default + fastpath update).
	KBase *kb.KB
}

// The resolving engineers' expertise is drawn uniformly from
// [minExpertise, maxExpertise).
const minExpertise, maxExpertise = 0.6, 0.95

// Generate builds a corpus by running unassisted engineers over sampled
// scenarios and recording what they did and how long it took.
func Generate(opts Options) *Corpus {
	if opts.N <= 0 {
		opts.N = 100
	}
	mix := opts.Mix
	if len(mix) == 0 {
		mix = scenarios.Routine()
	}
	kbase := opts.KBase
	if kbase == nil {
		kbase = kb.Default()
		kb.ApplyFastpathUpdate(kbase)
	}
	rng := randsrc.New(opts.Seed)
	c := &Corpus{History: kb.NewHistory()}
	for i := 0; i < opts.N; i++ {
		sc := mix[rng.Intn(len(mix))]
		seed := rng.Int63()
		in := sc.Build(randsrc.New(seed))
		eng := &oce.Engineer{
			Expertise: minExpertise + (maxExpertise-minExpertise)*rng.Float64(),
			KBase:     kbase,
			Rng:       randsrc.New(seed ^ 0x0ce),
		}
		reg := tools.NewDefaultRegistry(embed.NewStore(embed.NewDomainEmbedder(64)), c.History, in.Incident.Title, in.Incident.Service)
		out := eng.Solve(in.World, in.Incident, reg)
		ttm := out.TTM
		applied := out.Applied.Actions
		if !out.Mitigated {
			ttm += harness.EscalationPenalty
		}
		rec := in.Incident.Record(applied, ttm, sc.Name())
		c.History.Add(rec)
		c.Items = append(c.Items, CorpusItem{
			Record: rec, Scenario: sc.Name(), Seed: seed,
		})
	}
	return c
}

// Item-level replay outcome.
type ReplayItem struct {
	Scenario    string
	OriginalTTM time.Duration
	HelperTTM   time.Duration
	Match       bool
	// CondEstimate is the conditional TTM estimate (mean over history
	// conditioned on the helper's mitigation) for mismatched items;
	// CondN is the sample size behind it (0 = no estimate possible).
	CondEstimate time.Duration
	CondN        int
}

// Report aggregates a replay run, §3-style.
type Report struct {
	Items      []ReplayItem
	Matched    int
	Mismatched int
	Unresolved int // helper failed to mitigate at all

	// MeanSavings is the average (original - replayed) TTM over matched
	// incidents; positive means the helper is faster.
	MeanSavings time.Duration

	// MeanCondSavings extends savings to mismatched incidents using the
	// conditional estimate, where one exists.
	MeanCondSavings time.Duration
	CondCovered     int
}

// MatchFraction is the share of replayed incidents whose mitigation
// matched the operator's.
func (r *Report) MatchFraction() float64 {
	if len(r.Items) == 0 {
		return 0
	}
	return float64(r.Matched) / float64(len(r.Items))
}

// sameMitigation compares action sets on (kind, target), ignoring params
// and order: replay rebuilds the identical instance, so matching
// mitigations have matching targets.
func sameMitigation(a, b []mitigation.Action) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	key := func(x mitigation.Action) string { return string(x.Kind) + "|" + x.Target }
	am := map[string]int{}
	for _, x := range a {
		am[key(x)]++
	}
	bm := map[string]int{}
	for _, x := range b {
		bm[key(x)]++
	}
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	return true
}

// kindsOf converts a plan into kind-only requirements for the
// conditional estimator (targets differ across incidents; §3's estimate
// conditions on the mitigation *class*).
func kindsOf(p mitigation.Plan) []mitigation.Action {
	seen := map[mitigation.ActionKind]bool{}
	var out []mitigation.Action
	for _, a := range p.Actions {
		if !seen[a.Kind] {
			seen[a.Kind] = true
			out = append(out, mitigation.Action{Kind: a.Kind, Target: "", Param: ""})
		}
	}
	return out
}

// replayOutcome is one item's full per-trial computation; everything
// that touches the (read-only) corpus history happens inside the trial,
// so aggregation is a pure fold in item order.
type replayOutcome struct {
	skip bool // unknown scenario name
	item ReplayItem
	// unresolved/match/cond classify the item for the report counters.
	unresolved bool
}

// ReplayObserved re-runs every corpus incident through the runner and
// compares against the historical record, on workers pool workers (<= 0
// means GOMAXPROCS). Each corpus item rebuilds its identical instance
// from its recorded seed in its own trial — independent world, model,
// and toolbox — and the report aggregates in corpus order, so the
// output is bit-identical for every worker count. When sink is non-nil,
// each item's events buffer into a private recorder and absorb in
// corpus order (same determinism contract).
func ReplayObserved(c *Corpus, r harness.Runner, workers int, sink *obs.Sink) *Report {
	var recs []*obs.Recorder
	if sink != nil {
		recs = make([]*obs.Recorder, len(c.Items))
	}
	outcomes := parallel.RunTrials(len(c.Items), workers, 0, func(_ int64, i int) replayOutcome {
		item := c.Items[i]
		sc := scenarios.ByName(item.Scenario)
		if sc == nil {
			return replayOutcome{skip: true}
		}
		var ob obs.Observer
		if recs != nil {
			rec := obs.AcquireRecorder(fmt.Sprintf("replay/%04d", i))
			recs[i] = rec
			ob = rec
		}
		in := sc.Build(randsrc.New(item.Seed))
		var res harness.Result
		if or, ok := r.(harness.ObservedRunner); ok && ob != nil {
			res = or.RunObserved(in, item.Seed, ob)
		} else {
			res = r.Run(in, item.Seed)
		}
		return c.outcome(i, res)
	})
	for _, rec := range recs {
		if rec != nil {
			sink.Absorb(rec)
			rec.Release()
		}
	}

	rep := &Report{}
	var savingsSum, condSum time.Duration
	for i, tr := range outcomes {
		o := tr.Value
		if tr.Err != nil {
			// A crashed trial counts as harness.PoolResult counts one: an
			// escalation, so the report keeps every corpus item.
			o = c.outcome(i, harness.Result{Scenario: c.Items[i].Scenario, Escalated: true, PlanErrors: 1})
		}
		if o.skip {
			continue
		}
		switch {
		case o.unresolved:
			rep.Unresolved++
		case o.item.Match:
			rep.Matched++
			savingsSum += o.item.OriginalTTM - o.item.HelperTTM
		default:
			rep.Mismatched++
			if o.item.CondN > 0 {
				condSum += o.item.OriginalTTM - o.item.CondEstimate
				rep.CondCovered++
			}
		}
		rep.Items = append(rep.Items, o.item)
	}
	if rep.Matched > 0 {
		rep.MeanSavings = savingsSum / time.Duration(rep.Matched)
	}
	if rep.Matched+rep.CondCovered > 0 {
		rep.MeanCondSavings = (savingsSum + condSum) / time.Duration(rep.Matched+rep.CondCovered)
	}
	return rep
}

// outcome classifies corpus item i against the runner's result res.
func (c *Corpus) outcome(i int, res harness.Result) replayOutcome {
	item := c.Items[i]
	o := replayOutcome{item: ReplayItem{
		Scenario:    item.Scenario,
		OriginalTTM: time.Duration(item.Record.TTMMinutes * float64(time.Minute)),
		HelperTTM:   res.PenalizedTTM(),
	}}
	switch {
	case !res.Mitigated:
		o.unresolved = true
	case sameMitigation(res.Applied.Actions, item.Record.Mitigation):
		o.item.Match = true
	default:
		// Conditional estimate: past incidents resolved with the
		// helper's mitigation class. We can only query telemetry
		// retroactively for the operator's path, so the counterfactual
		// TTM comes from the conditioned history (approximate by
		// construction, as the paper notes).
		need := kindsOf(res.Applied)
		var recs []kb.IncidentRecord
		if len(need) > 0 {
			recs = c.History.WithMitigation(need)
		}
		if len(recs) > 0 {
			var sum float64
			for _, rr := range recs {
				sum += rr.TTMMinutes
			}
			o.item.CondEstimate = time.Duration(sum / float64(len(recs)) * float64(time.Minute))
			o.item.CondN = len(recs)
		}
	}
	return o
}
