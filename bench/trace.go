package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenarios"
)

// maxSpans bounds the spans kept for the trace file; aggregates keep
// counting past it.
const maxSpans = 300_000

// tracer records wall-clock spans around the calls into each layer of
// the program, from the benchmark's side of those calls: decorators on
// http.Handler, harness.Runner and the fleet scheduler, plus direct
// timed calls. Spans nest per goroutine — the gateway runs a request's
// session, Offer and Lookup calls on the handler's goroutine — so a
// span's parent is the innermost open span of its goroutine, or the
// client span named in the request headers for a handler span.
//
// A nil *tracer means tracing is off; the untraced run installs no
// decorator at all.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  int64
	stacks  map[int64][]*openSpan
	layers  map[string]*layerAgg
	spans   []spanRecord
	handled map[string]time.Duration // request id -> handler time
	non2xx  int

	sessions                            int
	rounds, llmCalls, toolCalls, tokens int
}

// openSpan is a span that has begun but not ended.
type openSpan struct {
	id, parent int64
	gid        int64
	name, key  string
	start      time.Time
	child      time.Duration // time covered by this span's children
}

// spanRecord is one finished span as written to the trace file.
type spanRecord struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Key     string  `json:"key,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
}

// layerAgg accumulates one layer's spans.
type layerAgg struct {
	durs        []float64 // ms
	total, self time.Duration
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		stacks:  map[int64][]*openSpan{},
		layers:  map[string]*layerAgg{},
		handled: map[string]time.Duration{},
	}
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 18 [running]:").
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(s, 10, 64)
	return id
}

// begin opens a span whose parent is the innermost open span on the
// calling goroutine.
func (t *tracer) begin(name, key string) *openSpan { return t.beginUnder(name, key, -1) }

// beginUnder opens a span under an explicit parent span id (0 for a
// root, -1 for the goroutine's innermost open span).
func (t *tracer) beginUnder(name, key string, parent int64) *openSpan {
	gid := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	st := t.stacks[gid]
	if parent < 0 {
		parent = 0
		if len(st) > 0 {
			parent = st[len(st)-1].id
		}
	}
	sp := &openSpan{id: t.nextID, parent: parent, gid: gid, name: name, key: key, start: time.Now()}
	t.stacks[gid] = append(st, sp)
	return sp
}

// end closes sp, charges its duration to the enclosing span on the same
// goroutine, and returns the duration.
func (t *tracer) end(sp *openSpan) time.Duration {
	now := time.Now()
	d := now.Sub(sp.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[sp.gid]
	if i := slices.Index(st, sp); i >= 0 {
		st = slices.Delete(st, i, i+1)
	}
	if len(st) == 0 {
		delete(t.stacks, sp.gid)
	} else {
		t.stacks[sp.gid] = st
		st[len(st)-1].child += d
	}
	self := d - sp.child
	t.addLocked(sp.name, d, self)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRecord{
			ID: sp.id, Parent: sp.parent, Name: sp.name, Key: sp.key,
			StartUS: us(sp.start.Sub(t.epoch)), EndUS: us(now.Sub(t.epoch)), SelfUS: us(self),
		})
	}
	return d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (t *tracer) addLocked(name string, d, self time.Duration) {
	l := t.layers[name]
	if l == nil {
		l = &layerAgg{}
		t.layers[name] = l
	}
	l.durs = append(l.durs, float64(d)/float64(time.Millisecond))
	l.total += d
	l.self += self
}

// span runs fn inside a span.
func (t *tracer) span(name, key string, fn func()) time.Duration {
	sp := t.begin(name, key)
	fn()
	return t.end(sp)
}

// handledRequest records a handler's time and status for its request.
func (t *tracer) handledRequest(rid string, d time.Duration, code int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rid != "" {
		t.handled[rid] = d
	}
	if code < 200 || code > 299 {
		t.non2xx++
	}
}

// connWait records, for one request, the client-observed latency minus
// the handler's time: connection, transport and socket queueing.
// net/http sends the end of a response only after the handler returns,
// so the handler's time is always recorded by then.
func (t *tracer) connWait(rid string, client time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.handled[rid]
	if !ok {
		return
	}
	delete(t.handled, rid)
	t.addLocked("gateway.conn_wait", client-h, 0)
}

// layer returns a copy of one layer's aggregate.
func (t *tracer) layer(name string) layerAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l := t.layers[name]; l != nil {
		return layerAgg{durs: slices.Clone(l.durs), total: l.total, self: l.self}
	}
	return layerAgg{}
}

// ---------------------------------------------------------------------------
// Decorators. Each keeps the optional interfaces the gateway and the
// fleet type-assert for, so a traced run takes the same code paths as
// an untraced one.
// ---------------------------------------------------------------------------

// statusWriter captures a handler's status code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeOf names a gateway request's endpoint.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/incidents" && r.Method == http.MethodPost:
		return "create"
	case p == "/v1/incidents":
		return "list"
	case strings.HasPrefix(p, "/v1/incidents/") && r.Method == http.MethodPatch:
		return "patch"
	case strings.HasPrefix(p, "/v1/incidents/"):
		return "get"
	case p == "/v1/sim/advance":
		return "advance"
	case p == "/v1/sim/drain":
		return "drain"
	case p == "/metrics":
		return "metrics"
	}
	return "other"
}

// wrapHandler times every request the gateway serves.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(headerRequestID)
		parent, err := strconv.ParseInt(r.Header.Get(headerParentSpan), 10, 64)
		if err != nil {
			parent = 0
		}
		sp := t.beginUnder("gateway."+routeOf(r), rid, parent)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		t.handledRequest(rid, t.end(sp), sw.code)
	})
}

// tracedRunner times each session a runner executes.
type tracedRunner struct {
	inner harness.Runner
	t     *tracer
}

func (r *tracedRunner) Name() string { return r.inner.Name() }

func (r *tracedRunner) Run(in *scenarios.Instance, seed int64) harness.Result {
	sp := r.t.begin("session", in.Incident.ID)
	res := r.inner.Run(in, seed)
	r.t.endSession(sp, res)
	return res
}

// tracedObservedRunner is tracedRunner over a harness.ObservedRunner,
// which the gateway prefers whenever it collects events.
type tracedObservedRunner struct {
	tracedRunner
	observed harness.ObservedRunner
}

func (r *tracedObservedRunner) RunObserved(in *scenarios.Instance, seed int64, o obs.Observer) harness.Result {
	sp := r.t.begin("session", in.Incident.ID)
	res := r.observed.RunObserved(in, seed, o)
	r.t.endSession(sp, res)
	return res
}

// wrapRunner decorates r, keeping harness.ObservedRunner when r has it.
func (t *tracer) wrapRunner(r harness.Runner) harness.Runner {
	tr := tracedRunner{inner: r, t: t}
	if or, ok := r.(harness.ObservedRunner); ok {
		return &tracedObservedRunner{tracedRunner: tr, observed: or}
	}
	return &tr
}

func (t *tracer) endSession(sp *openSpan, res harness.Result) {
	t.end(sp)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions++
	t.rounds += res.Rounds
	t.llmCalls += res.LLMCalls
	t.toolCalls += res.ToolCalls
	t.tokens += res.Tokens
}

// tracedScheduler times the gateway's Offer, StepTo and Lookup calls.
// Embedding the sharded scheduler keeps DrainSharded, so the gateway's
// drain still takes the per-region path.
type tracedScheduler struct {
	*fleet.ShardedScheduler
	t *tracer
}

func (s *tracedScheduler) Offer(a fleet.LiveArrival) error {
	sp := s.t.begin("fleet.offer", a.ID)
	err := s.ShardedScheduler.Offer(a)
	s.t.end(sp)
	return err
}

func (s *tracedScheduler) StepTo(at time.Duration) {
	sp := s.t.begin("fleet.step", "")
	s.ShardedScheduler.StepTo(at)
	s.t.end(sp)
}

func (s *tracedScheduler) Lookup(id string) (fleet.LiveStatus, bool) {
	sp := s.t.begin("fleet.lookup", id)
	st, ok := s.ShardedScheduler.Lookup(id)
	s.t.end(sp)
	return st, ok
}

// ---------------------------------------------------------------------------
// Trace file.
// ---------------------------------------------------------------------------

// layerSummary is the trace file's per-layer line.
type layerSummary struct {
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
	TailMS  float64 `json:"tail_ms"`
	Tail    string  `json:"tail"`
}

// summaries returns every layer's aggregate, sorted by name.
func (t *tracer) summaries() []layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]layerSummary, 0, len(t.layers))
	for name, l := range t.layers {
		d := newDist(l.durs)
		out = append(out, layerSummary{
			Layer: name, Count: len(d),
			TotalMS: float64(l.total) / float64(time.Millisecond),
			SelfMS:  float64(l.self) / float64(time.Millisecond),
			P50MS:   d.p50(), TailMS: d.tail(), Tail: d.tailName(),
		})
	}
	slices.SortFunc(out, func(a, b layerSummary) int { return strings.Compare(a.Layer, b.Layer) })
	return out
}

// write stores the spans, then one summary line per layer, as JSON
// lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	for _, s := range t.summaries() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
