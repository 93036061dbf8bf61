// Package faults is the deterministic fault-injection substrate behind
// the repository's robustness evaluation (experiment E13): it wraps the
// diagnostic toolbox (and, via ActionError, the mitigation automation)
// with seed-derived fault schedules so the helper's reliability under
// degraded telemetry is *measured* rather than asserted.
//
// The paper's §2.2 "reliable & safe" principle is the motivation: network
// monitors are unreliable exactly when they matter most — during
// incidents — and a helper that accepts or rejects hypotheses on
// corrupted evidence converts monitor flakiness into wrong mitigations
// (§3's "mistake overheads"). The injector simulates that flakiness with
// four fault classes:
//
//   - Transient: the query fails outright with a retryable RPC error.
//   - Timeout: the query hangs until the invocation-layer deadline, then
//     fails; the wasted time is charged to the simulated clock (and so
//     to TTM).
//   - Stale: the monitor serves the last cached reading (or a reading of
//     unverifiable freshness) marked Degraded — plausible but possibly
//     outdated.
//   - Corrupt: the pipeline flips finding polarity ("=true" <-> "=false")
//     and marks the result Degraded — the dangerous class, because a
//     naive consumer turns it into a wrong verdict.
//
// Flappy monitors that degrade *during* the incident are modeled by
// Config.Degrade: the effective fault rate grows with simulated elapsed
// time, so the longer an incident drags on, the less trustworthy the
// telemetry becomes.
//
// Determinism is the core contract, mirrored from internal/parallel: the
// fault schedule for a given (config seed, trial seed) pair is a pure
// function of the tool name and per-tool invocation index, derived with
// parallel.DeriveSeed's splitmix64 finalizer. Worker count, goroutine
// interleaving and map iteration order never touch it, so workers=1 and
// workers=N produce byte-identical experiment tables. All injector state
// is per-instance (per trial), never package-global, keeping parallel
// trials race-free.
package faults

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/tools"
)

// Class enumerates the injectable fault classes.
type Class int

// The fault classes. None means the invocation proceeds untouched.
const (
	None Class = iota
	Transient
	Timeout
	Stale
	Corrupt
)

// String names the class.
func (c Class) String() string {
	switch c {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Timeout:
		return "timeout"
	case Stale:
		return "stale"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Weights distributes injected faults across classes. Zero values select
// the default mix.
type Weights struct {
	Transient, Timeout, Stale, Corrupt float64
}

func (w Weights) withDefaults() Weights {
	if w.Transient+w.Timeout+w.Stale+w.Corrupt <= 0 {
		return Weights{Transient: 0.35, Timeout: 0.15, Stale: 0.2, Corrupt: 0.3}
	}
	return w
}

// Config parameterizes an injector. The zero value injects nothing, so
// untouched callers are byte-identical to a build without this package.
type Config struct {
	// Rate is the base per-invocation probability of a tool fault in
	// [0,1]; 0 disables tool-fault injection entirely.
	Rate float64

	// Seed selects the fault schedule. It is combined with the trial
	// seed, so distinct trials see distinct-but-reproducible schedules.
	Seed int64

	// Degrade models flappy monitors that get worse as the incident
	// drags on: the effective rate at simulated time t is
	// Rate*(1+Degrade*t_hours), capped at MaxRate. 0 keeps the rate
	// flat.
	Degrade float64

	// MaxRate caps the effective rate (default 0.9: even a collapsing
	// monitoring stack occasionally answers).
	MaxRate float64

	// ActionRate is the per-action probability that mitigation
	// automation fails mid-plan; 0 disables action-fault injection.
	// Escalation and no-ops never fail (handing off to humans is
	// reliable).
	ActionRate float64

	// Weights distributes tool faults across classes.
	Weights Weights
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool { return c.Rate > 0 || c.ActionRate > 0 }

// Validate rejects configs whose probabilities leave [0,1]. Out-of-range
// rates used to slip through silently — a rate above 1 behaves like 1
// after the MaxRate cap and a negative rate like 0, so typos produced
// plausible-looking but wrong experiment tables. Callers (the CLI flag
// layer, aiops.WithFaults) fail fast instead.
func (c Config) Validate() error {
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("fault rate %v out of range [0,1]", c.Rate)
	}
	if c.ActionRate < 0 || c.ActionRate > 1 {
		return fmt.Errorf("action fault rate %v out of range [0,1]", c.ActionRate)
	}
	if c.MaxRate < 0 || c.MaxRate > 1 {
		return fmt.Errorf("max fault rate %v out of range [0,1]", c.MaxRate)
	}
	if c.Degrade < 0 {
		return fmt.Errorf("degrade slope %v negative", c.Degrade)
	}
	if w := c.Weights; w.Transient < 0 || w.Timeout < 0 || w.Stale < 0 || w.Corrupt < 0 {
		return fmt.Errorf("fault class weights must be non-negative, got %+v", w)
	}
	return nil
}

func (c Config) maxRate() float64 {
	if c.MaxRate <= 0 {
		return 0.9
	}
	return c.MaxRate
}

// effectiveRate is the tool-fault probability at simulated time now.
func (c Config) effectiveRate(now time.Duration) float64 {
	r := c.Rate
	if c.Degrade > 0 {
		r *= 1 + c.Degrade*now.Hours()
	}
	if cap := c.maxRate(); r > cap {
		r = cap
	}
	return r
}

// Injector is one trial's deterministic fault source. All state is
// per-injector — never package-global — so parallel trials stay
// independent and race-free. An Injector must not be shared across
// concurrently running trials.
type Injector struct {
	cfg  Config
	base int64 // splitmix-derived from (cfg.Seed, trial seed)

	calls   map[string]int          // per-tool invocation counter
	cache   map[string]tools.Result // last clean result per tool, for stale serves
	actions int                     // mitigation-action counter
}

// NewInjector builds the injector for one trial. The schedule depends
// only on (cfg.Seed, trialSeed) — not on scheduling or worker count.
func NewInjector(cfg Config, trialSeed int64) *Injector {
	return &Injector{
		cfg:   cfg,
		base:  parallel.DeriveSeed(cfg.Seed^trialSeed, 0),
		calls: make(map[string]int),
		cache: make(map[string]tools.Result),
	}
}

// Config returns the injector's configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// fnv64a hashes a string for schedule keying (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// draw returns a deterministic uniform value in [0,1) keyed by (key,
// index, salt) under this injector's base seed, using the same
// splitmix64 finalizer the parallel trial pool derives seeds with.
func (inj *Injector) draw(key string, index int, salt int64) float64 {
	z := uint64(inj.base) ^ fnv64a(key) ^ uint64(salt)
	s := parallel.DeriveSeed(int64(z), index)
	return float64(uint64(s)>>11) / (1 << 53)
}

// ClassAt is the pure schedule function: the fault class for invocation
// index of the named tool at simulated time now. Identical inputs (and
// injector seeds) always yield the identical class.
func (inj *Injector) ClassAt(tool string, index int, now time.Duration) Class {
	rate := inj.cfg.effectiveRate(now)
	if rate <= 0 || inj.draw(tool, index, 0x0fa7) >= rate {
		return None
	}
	w := inj.cfg.Weights.withDefaults()
	total := w.Transient + w.Timeout + w.Stale + w.Corrupt
	p := inj.draw(tool, index, 0xc1a5) * total
	switch {
	case p < w.Transient:
		return Transient
	case p < w.Transient+w.Timeout:
		return Timeout
	case p < w.Transient+w.Timeout+w.Stale:
		return Stale
	default:
		return Corrupt
	}
}

// ActionError decides whether the next mitigation action's automation
// fails (the executor consults it via its FailOn hook). Escalation and
// no-ops never fail. The schedule is keyed by a per-injector action
// counter, so it is deterministic per trial.
func (inj *Injector) ActionError(a mitigation.Action) error {
	if inj == nil || inj.cfg.ActionRate <= 0 {
		return nil
	}
	if a.Kind == mitigation.Escalate || a.Kind == mitigation.NoOp {
		return nil
	}
	inj.actions++
	if inj.draw("action:"+string(a.Kind), inj.actions, 0xac71) < inj.cfg.ActionRate {
		return fmt.Errorf("faults: automation for %s failed (injected)", a)
	}
	return nil
}

// Deadline is the invocation-layer RPC deadline for a tool: the most a
// single (possibly hung) query may cost on the simulated clock before
// the caller gets an error back. Proportional to the tool's nominal
// latency, with a floor for fast tools.
func Deadline(t tools.Tool) time.Duration {
	return 2*t.Latency() + 2*time.Minute
}

// Wrap returns a registry in which every tool is wrapped by the
// injector, preserving names, teams, risk classes and latencies. A nil
// injector or a disabled config returns the registry unchanged, so the
// no-faults path shares zero code with injection.
func Wrap(reg *tools.Registry, inj *Injector) *tools.Registry {
	if inj == nil || !inj.cfg.Enabled() {
		return reg
	}
	out := tools.NewRegistry()
	for _, name := range reg.Names() {
		t, _ := reg.Get(name)
		if err := out.Register(reg.Owner(name), &faultyTool{inner: t, inj: inj}); err != nil {
			// Registering into a fresh registry with the source's own
			// (name, team) pairs cannot conflict.
			panic(err)
		}
	}
	return out
}

// faultyTool decorates one tool with the trial's fault schedule.
type faultyTool struct {
	inner tools.Tool
	inj   *Injector
}

func (f *faultyTool) Name() string           { return f.inner.Name() }
func (f *faultyTool) Description() string    { return f.inner.Description() }
func (f *faultyTool) Risk() tools.RiskClass  { return f.inner.Risk() }
func (f *faultyTool) Latency() time.Duration { return f.inner.Latency() }

// Invoke implements tools.Tool. The caller has already charged the
// tool's nominal latency; timeout faults charge the remainder up to the
// deadline here, the way a hung RPC burns real incident time.
func (f *faultyTool) Invoke(w *netsim.World, args map[string]string) (tools.Result, error) {
	name := f.inner.Name()
	call := f.inj.calls[name]
	f.inj.calls[name] = call + 1

	switch f.inj.ClassAt(name, call, w.Clock.Now()) {
	case Transient:
		return tools.Result{}, fmt.Errorf("faults: %s: transient RPC failure (injected)", name)
	case Timeout:
		if d, lat := Deadline(f.inner), f.inner.Latency(); d > lat {
			w.Clock.Advance(d - lat)
		}
		return tools.Result{}, fmt.Errorf("faults: %s: deadline %v exceeded (injected)", name, Deadline(f.inner))
	case Stale:
		if cached, ok := f.inj.cache[name]; ok {
			res := cloneResult(cached)
			res.Degraded, res.Source = true, "stale"
			return res, nil
		}
		// Nothing cached yet: serve a live reading whose freshness the
		// pipeline cannot vouch for.
		res, err := f.inner.Invoke(w, args)
		if err != nil {
			return res, err
		}
		res.Degraded, res.Source = true, "stale"
		return res, nil
	case Corrupt:
		res, err := f.inner.Invoke(w, args)
		if err != nil {
			return res, err
		}
		res.Findings = flipFindings(res.Findings)
		res.Degraded, res.Source = true, "corrupt"
		return res, nil
	}

	res, err := f.inner.Invoke(w, args)
	if err == nil && !res.Degraded {
		f.inj.cache[name] = cloneResult(res)
	}
	return res, err
}

// flipFindings inverts finding polarity: every "=true" becomes "=false"
// and vice versa — the corrupted-pipeline signature that turns good
// telemetry into confident wrong answers.
func flipFindings(in []string) []string {
	out := make([]string, len(in))
	for i, f := range in {
		f = strings.ReplaceAll(f, "=true", "\x00")
		f = strings.ReplaceAll(f, "=false", "=true")
		out[i] = strings.ReplaceAll(f, "\x00", "=false")
	}
	return out
}

// cloneResult deep-copies a result so cached serves cannot alias live
// slices or maps.
func cloneResult(r tools.Result) tools.Result {
	c := r
	c.Findings = append([]string(nil), r.Findings...)
	if r.Bindings != nil {
		c.Bindings = make(map[string]string, len(r.Bindings))
		for k, v := range r.Bindings {
			c.Bindings[k] = v
		}
	}
	return c
}
