package fleet

// The sharded multi-region scheduler: one deterministic discrete-event
// engine per region (severity-classed queues, admission control and
// aging intact per shard), batched dispatch across shards, and
// deterministic cross-shard work stealing when a region's responder
// pool saturates.
//
// Hyperscale incident management is region-sharded: every region owns a
// local responder pool, storms correlate arrivals across regions, and
// overload escalates across region boundaries (the Malik hyperscale
// architecture in PAPERS.md). The single-cell engine in engine.go
// scales to one responder pool; this file composes R of them without
// giving up one byte of the determinism contract. A one-region
// scheduler is the single-cell fleet: every front end (Simulate,
// SimulateSharded, the gateway) runs on this type.
//
// The bridge to real time is deliberately thin: the scheduler has no
// clock. Callers (internal/gateway) own a Clock and push its watermark
// in via StepTo; arrivals carry explicit simulated-clock timestamps and
// are buffered until the watermark passes them, then admitted in
// (At, ID) order. Two properties make this deterministic under
// concurrent submission:
//
//  1. Offer rejects arrivals stamped before the current watermark, so
//     once the watermark passes time t the set of arrivals at or before
//     t is frozen.
//  2. Ties at the same timestamp order by ID, which submission
//     interleaving cannot change.
//
// Within that frame:
//
//   - Batched ticks. The scheduler advances all shards to a common
//     watermark per tick (BatchStep apart), not per event. Within a
//     tick, due arrivals are admitted to their home shards in global
//     (At, ID) order, every shard's completions run up to the tick
//     watermark in sorted-region order, and only then does the steal
//     pass run. Engines are event-driven (dispatch times are exact
//     regardless of tick granularity), so ticks that admit nothing are
//     no-ops and the scheduler fast-forwards across them.
//   - Deterministic stealing. An arrival that finds its home shard
//     saturated (no idle responder, waiting queue at its admission
//     limit) parks in an overflow set instead of shedding immediately.
//     At the end of the same tick, each parked arrival — in (At, ID)
//     order — looks for an idle responder starting at its home region
//     and rotating through the other regions in sorted order. A hit on
//     the home region is a plain (late) dispatch; a hit elsewhere is a
//     steal: the arrival executes on the foreign pool at the tick
//     watermark, charged the barrier latency (watermark − ArrivedAt),
//     while its Outcome stays homed (Region is always the home region;
//     LiveStatus.HandledBy names the executing region). No idle
//     responder anywhere: the arrival sheds at its home shard, exactly
//     as a steal-free admission controller would have.
//
// Every choice above is a pure function of the accepted arrival set and
// the StepTo call sequence — never of submission interleaving, worker
// count, or map iteration order (regions are sorted once at
// construction). workers=1 and workers=N produce byte-identical
// reports, logs and metrics.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultRegion homes arrivals that do not name a region — and is the
// implicit region of every pre-sharding journal record and the one
// region of a single-cell fleet.
const DefaultRegion = "default"

// ErrUnknownRegion rejects an arrival naming a region the scheduler was
// not configured with.
var ErrUnknownRegion = errors.New("fleet: unknown region")

// Scheduler is the gateway-facing contract of ShardedScheduler: submit
// arrivals, push the simulated-clock watermark, inspect state, drain.
// It stays an interface so callers can decorate the scheduler (a
// tracing wrapper, say).
type Scheduler interface {
	Offer(LiveArrival) error
	StepTo(time.Duration)
	Lookup(id string) (LiveStatus, bool)
	DrainSharded() *ShardedReport
	Drained() bool
	Depth() (pending, queued int)
	Watermark() time.Duration
	SetOnShed(func(id string, at time.Duration))
	Regions() []string
}

var _ Scheduler = (*ShardedScheduler)(nil)

// ShardedLiveConfig parameterizes a sharded live scheduler.
type ShardedLiveConfig struct {
	// Regions names the shards (default {DefaultRegion}). The set is
	// sorted and deduplicated; iteration order never depends on it.
	Regions []string
	// OCEs is each region's responder pool size (default 3).
	OCEs int
	// Policy, QueueLimit and AgingStep behave exactly as in Config,
	// applied per shard.
	Policy     Policy
	QueueLimit int
	AgingStep  time.Duration
	// Steal enables cross-shard work stealing: arrivals that find their
	// home shard saturated try every other region's pool at the next
	// tick barrier before shedding.
	Steal bool
	// BatchStep is the cross-shard tick granularity — the common
	// watermark stride, and therefore the steal-decision latency
	// (default 15 minutes).
	BatchStep time.Duration
	// Obs, when non-nil, receives each admitted arrival's session event
	// stream (absorbed at dispatch time, in deterministic processing
	// order) and the fleet-level incident/shed events.
	Obs *obs.Sink
	// RunnerName stamps the fleet-level events.
	RunnerName string
	// SessionPrefix prefixes arrival IDs in fleet-level event session
	// labels (default "gw/", the gateway's).
	SessionPrefix string
	// OnShed, when non-nil, fires when admission control sheds an
	// arrival (the gateway journals the transition). Called with the
	// scheduler lock held: keep it quick and never call back into the
	// scheduler.
	OnShed func(id string, at time.Duration)
}

func (cfg ShardedLiveConfig) withDefaults() ShardedLiveConfig {
	if len(cfg.Regions) == 0 {
		cfg.Regions = []string{DefaultRegion}
	}
	if cfg.OCEs <= 0 {
		cfg.OCEs = 3
	}
	if cfg.AgingStep == 0 {
		cfg.AgingStep = 30 * time.Minute
	}
	if cfg.BatchStep <= 0 {
		cfg.BatchStep = 15 * time.Minute
	}
	if cfg.SessionPrefix == "" {
		cfg.SessionPrefix = "gw/"
	}
	return cfg
}

// normalizeRegions sorts and deduplicates a region list, mapping empty
// names to DefaultRegion.
func normalizeRegions(in []string) []string {
	out := make([]string, 0, len(in))
	seen := map[string]bool{}
	for _, r := range in {
		if r == "" {
			r = DefaultRegion
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// regionShard is one region's engine plus its ID/recorder bookkeeping
// (index-parallel with the engine's outcomes).
type regionShard struct {
	name      string
	eng       *engine
	ids       []string
	recs      []*obs.Recorder
	stolenIn  int // arrivals this shard executed for saturated homes
	stolenOut int // arrivals this shard's saturation pushed elsewhere
}

// shardRef locates an accepted arrival: pendingRef until the watermark
// admits it, then the shard executing it and its outcome index there
// (the executing shard differs from the outcome's home Region exactly
// when the arrival was stolen).
type shardRef struct {
	region string
	idx    int
}

var pendingRef = shardRef{idx: -1}

// ShardedScheduler runs one engine per region behind the Scheduler
// contract. Safe for concurrent use.
type ShardedScheduler struct {
	mu      sync.Mutex
	cfg     ShardedLiveConfig
	regions []string // sorted, deduplicated
	shards  map[string]*regionShard

	pending   []LiveArrival // global (At, ID) order across all regions
	index     map[string]shardRef
	overflow  []LiveArrival // saturated-home arrivals awaiting this tick's steal pass
	watermark time.Duration
	drained   bool
	stolen    int
	rep       *ShardedReport
}

// NewSharded builds a sharded live scheduler.
func NewSharded(cfg ShardedLiveConfig) *ShardedScheduler {
	cfg = cfg.withDefaults()
	s := &ShardedScheduler{
		cfg:     cfg,
		regions: normalizeRegions(cfg.Regions),
		shards:  map[string]*regionShard{},
		index:   map[string]shardRef{},
	}
	for _, r := range s.regions {
		sh := &regionShard{
			name: r,
			eng:  newEngine(cfg.OCEs, cfg.Policy, cfg.QueueLimit, cfg.AgingStep),
		}
		sh.eng.onProcessed = func(idx int) { s.processedShard(sh, idx) }
		s.shards[r] = sh
	}
	return s
}

// Regions returns the sorted region set.
func (s *ShardedScheduler) Regions() []string {
	return append([]string(nil), s.regions...)
}

// SetOnShed installs (or replaces) the admission-shed hook after
// construction — the gateway wires its write-ahead journal here. The
// hook contract matches ShardedLiveConfig.OnShed.
func (s *ShardedScheduler) SetOnShed(fn func(id string, at time.Duration)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.OnShed = fn
}

// Offer submits one arrival to its home region's shard. An empty Region
// means DefaultRegion; an unconfigured one is ErrUnknownRegion. It
// never blocks on scheduling work: the arrival parks in the pending set
// until the watermark passes its At.
func (s *ShardedScheduler) Offer(a LiveArrival) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return ErrDrained
	}
	if a.ID == "" {
		return errors.New("fleet: arrival id must be non-empty")
	}
	if a.Region == "" {
		a.Region = DefaultRegion
	}
	if _, ok := s.shards[a.Region]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRegion, a.Region)
	}
	if _, ok := s.index[a.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, a.ID)
	}
	if a.At < s.watermark {
		return fmt.Errorf("%w: %s at %s < %s", ErrStaleArrival, a.ID, a.At, s.watermark)
	}
	at := sort.Search(len(s.pending), func(i int) bool {
		p := s.pending[i]
		return p.At > a.At || (p.At == a.At && p.ID > a.ID)
	})
	s.pending = append(s.pending, LiveArrival{})
	copy(s.pending[at+1:], s.pending[at:])
	s.pending[at] = a
	s.index[a.ID] = pendingRef
	return nil
}

// StepTo advances the common watermark to t (never backward), ticking
// every shard in BatchStep strides.
func (s *ShardedScheduler) StepTo(t time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return
	}
	s.advanceLocked(t)
}

// advanceLocked ticks the shards forward until the watermark reaches t.
func (s *ShardedScheduler) advanceLocked(t time.Duration) {
	for s.watermark < t {
		// Fast-forward: ticks that admit nothing are no-ops (engines are
		// event-driven and the overflow set empties every tick), so jump
		// whole BatchSteps toward the next due arrival, keeping the tick
		// grid intact.
		next := t
		if len(s.pending) > 0 && s.pending[0].At < next {
			next = s.pending[0].At
		}
		if gap := next - s.watermark; gap > s.cfg.BatchStep {
			s.watermark += (gap - 1) / s.cfg.BatchStep * s.cfg.BatchStep
		}
		w := s.watermark + s.cfg.BatchStep
		if w > t {
			w = t
		}
		s.tickLocked(w)
		s.watermark = w
	}
}

// tickLocked runs one cross-shard tick to watermark w: admissions in
// global (At, ID) order, completions per region in sorted order, then
// the steal pass.
func (s *ShardedScheduler) tickLocked(w time.Duration) {
	for len(s.pending) > 0 && s.pending[0].At <= w {
		a := s.pending[0]
		s.pending = s.pending[1:]
		s.admitLocked(a)
	}
	for _, r := range s.regions {
		s.shards[r].eng.completeUntil(w)
	}
	s.stealLocked(w)
}

// admitLocked routes one due arrival into its home shard — or, when
// stealing is on and the home shard is saturated at its arrival time,
// parks it in the overflow set for this tick's steal pass.
func (s *ShardedScheduler) admitLocked(a LiveArrival) {
	sh := s.shards[a.Region]
	sh.eng.completeUntil(a.At)
	if s.cfg.Steal && sh.eng.saturated() {
		s.overflow = append(s.overflow, a)
		return
	}
	idx := s.placeLocked(sh, a)
	sh.eng.arrive(idx)
}

// placeLocked appends the arrival's outcome shell, ID and recorder to a
// shard, indexing it there. The Outcome's Region is always the home
// region, even when placed on a foreign shard by stealing.
func (s *ShardedScheduler) placeLocked(sh *regionShard, a LiveArrival) int {
	idx := sh.eng.add(Outcome{
		Index: len(sh.eng.outcomes), Scenario: a.Scenario, Severity: a.Severity,
		Region: a.Region, ArrivedAt: a.At, Result: a.Result,
	})
	sh.ids = append(sh.ids, a.ID)
	sh.recs = append(sh.recs, a.Events)
	s.index[a.ID] = shardRef{region: sh.name, idx: idx}
	return idx
}

// stealLocked resolves this tick's overflow at barrier w: each parked
// arrival, in (At, ID) order, takes the first idle responder found
// rotating from its home region through the others in sorted order —
// home hit: late local dispatch; foreign hit: steal; no hit: shed at
// home.
func (s *ShardedScheduler) stealLocked(w time.Duration) {
	if len(s.overflow) == 0 {
		return
	}
	overflow := s.overflow
	s.overflow = nil
	for _, a := range overflow {
		home := sort.SearchStrings(s.regions, a.Region)
		placed := false
		for k := 0; k < len(s.regions); k++ {
			target := s.shards[s.regions[(home+k)%len(s.regions)]]
			r := target.eng.idle()
			if r < 0 {
				continue
			}
			idx := s.placeLocked(target, a)
			target.eng.dispatch(r, idx, w)
			if target.name != a.Region {
				s.stolen++
				s.shards[a.Region].stolenOut++
				target.stolenIn++
				if s.cfg.Obs != nil {
					s.cfg.Obs.Registry().Inc(obs.MFleetStolen,
						obs.Labels{"from": a.Region, "to": target.name}, 1)
				}
			}
			placed = true
			break
		}
		if !placed {
			sh := s.shards[a.Region]
			idx := s.placeLocked(sh, a)
			sh.eng.shedOutcome(idx)
		}
	}
}

// processedShard is every shard engine's onProcessed hook: emit
// observability for one outcome the moment its fate is decided. Serial
// under s.mu, so absorb order is the deterministic processing order.
func (s *ShardedScheduler) processedShard(sh *regionShard, idx int) {
	rec := sh.recs[idx]
	sh.recs[idx] = nil
	o := &sh.eng.outcomes[idx]
	if o.Shed && s.cfg.OnShed != nil {
		s.cfg.OnShed(sh.ids[idx], o.ArrivedAt)
	}
	if s.cfg.Obs == nil {
		if rec != nil {
			rec.Release()
		}
		return
	}
	session := s.cfg.SessionPrefix + sh.ids[idx]
	if o.Shed {
		s.cfg.Obs.Emit(obs.Event{
			Type: obs.EvFleetShed, At: o.ArrivedAt, Session: session,
			Runner: s.cfg.RunnerName, Scenario: o.Scenario, Region: o.Region,
		})
	} else {
		s.cfg.Obs.Absorb(rec)
		s.cfg.Obs.Emit(obs.Event{
			Type: obs.EvFleetIncident, At: o.ArrivedAt, Session: session,
			Runner: s.cfg.RunnerName, Scenario: o.Scenario, Region: o.Region,
			Queue: o.Queue, Resolution: o.Resolution,
		})
	}
	if rec != nil {
		rec.Release()
	}
}

// Lookup reports the current state of an arrival by ID.
func (s *ShardedScheduler) Lookup(id string) (LiveStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.index[id]
	if !ok {
		return LiveStatus{}, false
	}
	if ref == pendingRef {
		return LiveStatus{State: StatePending}, true
	}
	sh := s.shards[ref.region]
	o := sh.eng.outcomes[ref.idx]
	st := LiveStatus{Outcome: o}
	if !o.Shed && ref.region != o.Region {
		st.HandledBy = ref.region
	}
	switch {
	case o.Shed:
		st.State = StateShed
	case s.queuedInLocked(sh, ref.idx):
		st.State = StateQueued
	case s.drained || o.StartedAt+o.Handling <= s.watermark:
		st.State = StateResolved
	default:
		st.State = StateActive
	}
	return st, true
}

func (s *ShardedScheduler) queuedInLocked(sh *regionShard, idx int) bool {
	for _, q := range sh.eng.queued {
		if q == idx {
			return true
		}
	}
	return false
}

// Watermark returns the common simulated-time watermark.
func (s *ShardedScheduler) Watermark() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// Drained reports whether DrainSharded has closed the intake (the
// gateway's /readyz flips not-ready on it).
func (s *ShardedScheduler) Drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained
}

// Depth reports (pending, queued-across-all-shards) sizes.
func (s *ShardedScheduler) Depth() (pending, queued int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.regions {
		queued += len(s.shards[r].eng.queued)
	}
	return len(s.pending), queued
}

// DrainSharded closes the intake, ticks every pending arrival through
// its shard, runs all pools to idle, and returns the fleet-wide and
// per-region reports (idempotent afterwards). This is the
// graceful-shutdown path — and, for the batch simulations and sim-clock
// harnesses, the run-to-completion step.
func (s *ShardedScheduler) DrainSharded() *ShardedReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drained {
		return s.rep
	}
	if n := len(s.pending); n > 0 {
		s.advanceLocked(s.pending[n-1].At)
	}
	for _, r := range s.regions {
		s.shards[r].eng.completeUntil(never)
		if m := s.shards[r].eng.makespan; m > s.watermark {
			s.watermark = m
		}
	}
	s.drained = true
	s.rep = s.buildReportLocked()
	return s.rep
}

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

// RegionReport is one region's aggregate plus its steal balance. Its
// Outcomes are in placement order: arrival order, except that a steal
// pass places each tick's overflow (stolen in, dispatched late at home,
// or shed) after the tick's admissions, so the last outcome need not be
// the latest arrival.
type RegionReport struct {
	Region string
	*Report
	// StolenIn counts arrivals this region's pool executed for
	// saturated homes; StolenOut counts this region's arrivals that
	// escaped to another pool.
	StolenIn  int
	StolenOut int
}

// ShardedReport is the fleet-wide aggregate plus the per-region
// breakdown.
type ShardedReport struct {
	// Total aggregates every arrival fleet-wide (utilization over
	// OCEs × regions; outcomes in (ArrivedAt, ID) order).
	Total *Report
	// Regions holds one report per region, in sorted region order. An
	// arrival counts in the region that *executed* it (a stolen
	// arrival's outcome appears under the stealing region, with its
	// Outcome.Region still naming home).
	Regions []RegionReport
	// Stolen counts cross-region steals fleet-wide.
	Stolen int
}

// buildReportLocked assembles the per-region and fleet-wide reports
// from the shard engines, after they ran to idle.
func (s *ShardedScheduler) buildReportLocked() *ShardedReport {
	oces, sink := s.cfg.OCEs, s.cfg.Obs
	rep := &ShardedReport{Stolen: s.stolen}
	var busySum, makespan time.Duration
	shed, peak, mitigated := 0, 0, 0
	// The fleet-wide outcomes merge every shard's in (ArrivedAt, ID)
	// order; sort small references, not the outcomes themselves.
	type ref struct {
		sh  *regionShard
		idx int
	}
	refs := make([]ref, 0, len(s.index))
	for _, r := range s.regions {
		sh := s.shards[r]
		e := sh.eng
		rr := RegionReport{Region: r, StolenIn: sh.stolenIn, StolenOut: sh.stolenOut}
		rr.Report = e.report(oces, sink, obs.Labels{"region": r})
		rep.Regions = append(rep.Regions, rr)
		busySum += e.busySum
		if e.makespan > makespan {
			makespan = e.makespan
		}
		shed += e.shed
		if e.peak > peak {
			peak = e.peak
		}
		for j := range e.outcomes {
			if o := &e.outcomes[j]; !o.Shed && o.Result.Mitigated {
				mitigated++
			}
			refs = append(refs, ref{sh, j})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		if c := cmp.Compare(a.sh.eng.outcomes[a.idx].ArrivedAt, b.sh.eng.outcomes[b.idx].ArrivedAt); c != 0 {
			return c
		}
		return strings.Compare(a.sh.ids[a.idx], b.sh.ids[b.idx])
	})
	outs := make([]Outcome, len(refs))
	for i, rf := range refs {
		outs[i] = rf.sh.eng.outcomes[rf.idx]
		outs[i].Index = i
	}
	total := &Report{Outcomes: outs, Shed: shed, PeakQueueDepth: peak}
	total.Admitted = len(outs) - shed
	aggregate(total, oces*len(s.regions), sink, busySum, makespan, mitigated, nil)
	rep.Total = total
	return rep
}
