package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// ArmStats summarizes one A/B arm.
type ArmStats struct {
	Name       string
	N          int
	TTMMinutes []float64 // penalized TTM per incident
	Mitigated  int
	Correct    int
	Escalated  int
	Wrong      int
	Secondary  int
	Tokens     int
	// CostUSD totals the arm's model inference bill (§3 system cost).
	CostUSD float64
}

// MeanTTM returns the arm's mean penalized TTM in minutes.
func (a *ArmStats) MeanTTM() float64 { return Mean(a.TTMMinutes) }

// MedianTTM returns the arm's median penalized TTM in minutes.
func (a *ArmStats) MedianTTM() float64 { return Median(a.TTMMinutes) }

// MitigationRate is the fraction of incidents the arm mitigated itself.
func (a *ArmStats) MitigationRate() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Mitigated) / float64(a.N)
}

// CorrectRate is the fraction with ground-truth-correct mitigations.
func (a *ArmStats) CorrectRate() float64 {
	if a.N == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.N)
}

// add records one result.
func (a *ArmStats) add(r harness.Result) {
	a.N++
	a.TTMMinutes = append(a.TTMMinutes, r.PenalizedTTM().Minutes())
	if r.Mitigated {
		a.Mitigated++
	}
	if r.Correct {
		a.Correct++
	}
	if r.Escalated {
		a.Escalated++
	}
	a.Wrong += r.Wrong
	a.Secondary += r.Secondary
	a.Tokens += r.Tokens
	a.CostUSD += r.CostUSD
}

// ABResult is the full randomized-trial outcome.
type ABResult struct {
	Treatment ArmStats
	Control   ArmStats

	Welch       TTestResult
	MannWhitney TTestResult
	PermP       float64
	// EffectSize is Cohen's d for the TTM difference.
	EffectSize float64
	// CI for the mean TTM difference (treatment - control), minutes.
	DiffLo, DiffHi float64
	// TrialErrors counts trials whose runner panicked; they are excluded
	// from both arms (the parallel pool records the panic instead of
	// crashing the evaluation).
	TrialErrors int
}

// SignificantAt reports whether both the parametric and rank tests call
// the TTM difference significant at level alpha.
func (r *ABResult) SignificantAt(alpha float64) bool {
	return r.Welch.P < alpha && r.MannWhitney.P < alpha
}

// ABConfig parameterizes the randomized trial.
type ABConfig struct {
	N       int // incidents in the trial
	Mix     []scenarios.Scenario
	Seed    int64
	Workers int // parallel trial workers (<= 0: GOMAXPROCS)
	// Obs, when non-nil, collects every trial's event stream and metric
	// aggregates. Trials buffer into private recorders and the sink
	// absorbs them in draw order, so -trace-out / -metrics-out exports
	// are byte-identical at every worker count. Nil costs nothing.
	Obs *obs.Sink
}

// ABTest randomly assigns each sampled incident to the treatment
// (helper-assisted) or control (helper-free) arm and compares TTM and
// mistake overheads — §3's "most robust evaluation we can get".
//
// Randomization is per incident: the same scenario stream would have
// been handled by either arm, and confounders (incident class mix,
// severity) balance out in expectation.
func ABTest(cfg ABConfig, treatment, control harness.Runner) *ABResult {
	if cfg.N <= 0 {
		cfg.N = 100
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = scenarios.All()
	}
	// Randomization stays a single serial pass over one rng (the draw
	// sequence defines the trial), then the drawn trials execute on the
	// parallel pool and aggregate back in draw order — so the result is
	// bit-identical for every worker count.
	rng := randsrc.New(cfg.Seed)
	res := &ABResult{
		Treatment: ArmStats{Name: treatment.Name()},
		Control:   ArmStats{Name: control.Name()},
	}
	type draw struct {
		sc        scenarios.Scenario
		seed      int64
		treatment bool
	}
	draws := make([]draw, cfg.N)
	for i := range draws {
		sc := mix[rng.Intn(len(mix))]
		seed := rng.Int63()
		draws[i] = draw{sc: sc, seed: seed, treatment: rng.Intn(2) == 0}
	}
	var recs []*obs.Recorder
	if cfg.Obs != nil {
		recs = make([]*obs.Recorder, cfg.N)
	}
	trials := parallel.RunTrials(cfg.N, cfg.Workers, cfg.Seed, func(_ int64, i int) harness.Result {
		d := draws[i]
		var o obs.Observer
		if recs != nil {
			rec := obs.AcquireRecorder(fmt.Sprintf("ab/%04d", i))
			recs[i] = rec
			o = rec
		}
		if d.treatment {
			return harness.BuildAndRunObserved(treatment, d.sc, d.seed, o)
		}
		return harness.BuildAndRunObserved(control, d.sc, d.seed, o)
	})
	for _, rec := range recs {
		cfg.Obs.Absorb(rec)
		rec.Release()
	}
	for i, tr := range trials {
		if tr.Err != nil {
			res.TrialErrors++
			continue
		}
		if draws[i].treatment {
			res.Treatment.add(tr.Value)
		} else {
			res.Control.add(tr.Value)
		}
	}
	res.Welch = WelchT(res.Treatment.TTMMinutes, res.Control.TTMMinutes)
	res.EffectSize = CohensD(res.Treatment.TTMMinutes, res.Control.TTMMinutes)
	res.MannWhitney = MannWhitneyU(res.Treatment.TTMMinutes, res.Control.TTMMinutes)
	res.PermP = PermutationTest(res.Treatment.TTMMinutes, res.Control.TTMMinutes, 2000, rng)

	// Bootstrap CI on the difference of means.
	diffs := make([]float64, 0, 2000)
	bootRng := randsrc.New(cfg.Seed ^ 0xb007)
	for i := 0; i < 2000; i++ {
		diffs = append(diffs, resample(res.Treatment.TTMMinutes, bootRng)-resample(res.Control.TTMMinutes, bootRng))
	}
	res.DiffLo, res.DiffHi = Percentile(diffs, 2.5), Percentile(diffs, 97.5)
	return res
}

func resample(xs []float64, rng *rand.Rand) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < len(xs); i++ {
		sum += xs[rng.Intn(len(xs))]
	}
	return sum / float64(len(xs))
}

// RunMatrix evaluates several runners over the same incident stream
// (paired, not randomized): every runner sees identical incidents. Used
// by the comparative experiments (E2, E3, E9) where pairing removes
// incident-mix variance entirely. Trials run on the parallel pool
// (workers <= 0 means GOMAXPROCS); each trial rebuilds its instance per
// runner from the same seed, and aggregation happens in stream order,
// so the matrix is identical at any worker count.
func RunMatrix(n, workers int, mix []scenarios.Scenario, seed int64, runners ...harness.Runner) map[string]*ArmStats {
	return RunMatrixObserved(n, workers, mix, seed, nil, runners...)
}

// RunMatrixObserved is RunMatrix with per-trial event capture into sink
// (nil sink: identical to RunMatrix). Each trial's runners share one
// recorder, absorbed in stream order.
func RunMatrixObserved(n, workers int, mix []scenarios.Scenario, seed int64, sink *obs.Sink, runners ...harness.Runner) map[string]*ArmStats {
	if len(mix) == 0 {
		mix = scenarios.All()
	}
	rng := randsrc.New(seed)
	out := make(map[string]*ArmStats, len(runners))
	for _, r := range runners {
		out[r.Name()] = &ArmStats{Name: r.Name()}
	}
	type draw struct {
		sc   scenarios.Scenario
		seed int64
	}
	draws := make([]draw, n)
	for i := range draws {
		draws[i] = draw{sc: mix[rng.Intn(len(mix))], seed: rng.Int63()}
	}
	var recs []*obs.Recorder
	if sink != nil {
		recs = make([]*obs.Recorder, n)
	}
	trials := parallel.RunTrials(n, workers, seed, func(_ int64, i int) []harness.Result {
		var o obs.Observer
		if recs != nil {
			rec := obs.AcquireRecorder(fmt.Sprintf("matrix/%04d", i))
			recs[i] = rec
			o = rec
		}
		row := make([]harness.Result, len(runners))
		for j, r := range runners {
			row[j] = harness.BuildAndRunObserved(r, draws[i].sc, draws[i].seed, o)
		}
		return row
	})
	for _, rec := range recs {
		sink.Absorb(rec)
		rec.Release()
	}
	for _, tr := range trials {
		if tr.Err != nil {
			continue
		}
		for j, r := range runners {
			out[r.Name()].add(tr.Value[j])
		}
	}
	return out
}

// RenderABReport renders the abtest CLI report — the arm comparison, the
// significance tests, and the verdict line — exactly as the command has
// always printed it. Factoring the rendering here lets golden tests pin
// the bytes without shelling out.
func RenderABReport(res *ABResult) string {
	var b strings.Builder
	arms := NewTable("A/B trial: helper-assisted vs unassisted control",
		"arm", "n", "meanTTM(m)", "medianTTM(m)", "p95TTM(m)", "mitigated", "correct", "wrong", "secondary")
	for _, a := range []*ArmStats{&res.Treatment, &res.Control} {
		arms.AddRow(a.Name, a.N, a.MeanTTM(), a.MedianTTM(), Percentile(a.TTMMinutes, 95),
			Pct(a.MitigationRate()), Pct(a.CorrectRate()), a.Wrong, a.Secondary)
	}
	fmt.Fprintln(&b, arms)

	tests := NewTable("significance of the TTM difference", "test", "statistic", "p-value")
	tests.AddRow("Welch t", res.Welch.T, fmt.Sprintf("%.4g", res.Welch.P))
	tests.AddRow("Mann-Whitney U (z)", res.MannWhitney.T, fmt.Sprintf("%.4g", res.MannWhitney.P))
	tests.AddRow("permutation", "-", fmt.Sprintf("%.4g", res.PermP))
	tests.AddRow("bootstrap 95% CI (min)", fmt.Sprintf("[%.1f, %.1f]", res.DiffLo, res.DiffHi), "-")
	fmt.Fprintln(&b, tests)

	if res.SignificantAt(0.05) {
		fmt.Fprintln(&b, "TTM difference significant at alpha=0.05")
	} else {
		fmt.Fprintln(&b, "TTM difference NOT significant at alpha=0.05 (increase -n)")
	}
	return b.String()
}

// MinutesOf converts a duration to float minutes; tiny readability
// helper used by reports.
func MinutesOf(d time.Duration) float64 { return d.Minutes() }
