package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// apiKey authenticates the load clients; the gateway maps it to the
// caller "local-dev", as `aiopsd` does by default.
const apiKey = "dev"

// Request headers the traced run adds so the handler span can name its
// request and its client-side parent span. The gateway ignores them.
const (
	headerRequestID  = "X-Bench-Request"
	headerParentSpan = "X-Bench-Span"
)

// client is one load-generator connection: its transport holds at most
// one socket, so n clients never open more than n connections.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	name string
	sent int
}

func newClient(base string, id int, tr *tracer) *client {
	t := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{
		hc:   &http.Client{Transport: t, Timeout: time.Minute},
		base: base, tr: tr, name: fmt.Sprintf("c%d", id),
	}
}

func newClients(base string, n int, tr *tracer) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(base, i, tr)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// do sends one authenticated request and reads the whole response.
// route names the endpoint for the trace ("create", "get", ...).
func (c *client) do(method, path, route string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", apiKey)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var sp *openSpan
	var rid string
	if c.tr != nil {
		c.sent++
		rid = c.name + "-" + strconv.Itoa(c.sent)
		sp = c.tr.begin("client."+route, rid)
		req.Header.Set(headerRequestID, rid)
		req.Header.Set(headerParentSpan, strconv.FormatInt(sp.id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if sp != nil {
			c.tr.end(sp)
		}
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if sp != nil {
		c.tr.connWait(rid, c.tr.end(sp))
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// call sends a request, requires status want, and decodes the body
// into out when out is non-nil.
func (c *client) call(method, path, route string, body []byte, want int, out any) error {
	code, data, err := c.do(method, path, route, body)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("%s %s: HTTP %d, want %d: %s", method, path, code, want, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

// opSample is one timed operation of a load phase.
type opSample struct {
	// lat runs to the operation's completion from its due time or send
	// time (see openLoop; closed loop: send time); late is how far after
	// its due time the operation was sent.
	lat, late time.Duration
	// queued: every client was busy at the operation's due time (open
	// loop only), so its wait is charged to lat.
	queued bool
	err    error
}

// openLoop runs n operations on a fixed schedule: operation i is due at
// start + i/rate and is sent by whichever client is free, never before
// its due time. An operation that found every client busy at its due
// time is queued: it counts its latency from the due time, so a stall
// that holds every client also delays — and is charged to — the
// operations due during it. One that a client took up before its due
// time counts from when it was sent: that client only waited for its
// timer (see sleepUntil). Either way, late reports the gap (see
// checkGenerator). after, when non-nil, runs on the same client once an
// operation is timed (see advancer); its failure fails the operation.
func openLoop(clients []*client, n int, rate float64, op func(c *client, i int) error, after func(c *client) error) []opSample {
	out := make([]opSample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.tr != nil {
				labelSide("client")
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				wait := time.Until(due)
				if wait > 0 {
					sleepUntil(due)
				}
				sent, from := time.Now(), due
				if wait > 0 {
					from = sent
				}
				err := op(c, i)
				out[i] = opSample{lat: time.Since(from), late: sent.Sub(due), queued: wait <= 0, err: err}
				if after != nil {
					if aerr := after(c); aerr != nil && err == nil {
						out[i].err = aerr
					}
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks its thread in nanosleep(2) until t. time.Sleep
// wakes through the runtime's network poller, whose millisecond timeout
// sent requests 0.6 ms late at the median, more than a whole GET takes;
// nanosleep sends them 0.08 ms late. The runtime hands the sleeping
// thread's scheduler slot to other work when there is any.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
	}
}

// closedLoop keeps every client busy for d: each sends its next
// operation as soon as the previous one — and after, as in openLoop —
// returns, up to limit operations in all. It returns the samples and
// the wall time until the last operation finished.
func closedLoop(clients []*client, d time.Duration, limit int, op func(c *client, i int) error, after func(c *client) error) ([]opSample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var out []opSample
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.tr != nil {
				labelSide("client")
			}
			var mine []opSample
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= limit {
					break
				}
				t0 := time.Now()
				err := op(c, i)
				lat := time.Since(t0)
				if after != nil {
					if aerr := after(c); aerr != nil && err == nil {
						err = aerr
					}
				}
				mine = append(mine, opSample{lat: lat, err: err})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// failures counts the samples whose operation failed.
func failures(ss []opSample) int {
	n := 0
	for _, s := range ss {
		if s.err != nil {
			n++
		}
	}
	return n
}

// maxGenLateMS bounds the generator's own lag (see checkGenerator):
// beyond it an open-loop phase did not offer its stated rate, and the
// run is invalid.
const maxGenLateMS = 5

// checkGenerator reports how an open-loop phase kept its schedule and
// fails the run when the generator fell behind. gen_late_ms is the p95
// of how late free clients sent the operations they were waiting for:
// the generator's own lag. Its p99, gen_late_p99_ms, follows the
// machine: a vCPU the hypervisor takes away for a few milliseconds
// stalls whatever thread it ran, generator and gateway alike, and at 14%
// steal the p99 at 100 POST/s reached 9 ms while the p95 stayed under
// 3 ms. An operation that found every client busy was held by the
// system under test, not by the generator; its wait is charged to its
// latency, and queued_share and queued_wait_ms report those operations.
func checkGenerator(e *env, res *result, ss []opSample) {
	var own, queued []time.Duration
	for _, s := range ss {
		if s.queued {
			queued = append(queued, s.late)
		} else {
			own = append(own, s.late)
		}
	}
	gen, wait := msOf(own), msOf(queued)
	late := percentile(gen, 95)
	res.checks["gen_late_ms"] = late
	res.checks["gen_late_p50_ms"] = gen.p50()
	res.checks["gen_late_"+gen.tailName()+"_ms"] = gen.tail()
	res.checks["queued_share"] = float64(len(queued)) / float64(len(ss))
	res.checks["queued_wait_"+wait.tailName()+"_ms"] = wait.tail()
	if late > maxGenLateMS {
		e.chk.failf("the open-loop generator sent p95 %.2f ms late, over %d ms: the phase did not hold its rate",
			late, maxGenLateMS)
	}
}

// tickMinutes is the sharded scheduler's cross-shard tick (the
// fleet.ShardedLiveConfig BatchStep default).
const tickMinutes = 15

// advanceEvery is how often a load phase moves the simulated clock. In
// wall-clock mode the daemon steps its scheduler on every request;
// stepping once a second instead batched a hundred sessions' events into
// one step that held every Offer for about 10ms, which set the POST p99
// on a cliff between stalled and unstalled requests (run-to-run spread
// 0.4 of the median, against 0.15 at this period).
const advanceEvery = 100 * time.Millisecond

// advancer moves the simulated clock at most every advanceEvery, to the
// start of the scheduler tick that holds the latest opened_at of the
// longest fully acknowledged prefix of a tape. Every arrival after that
// prefix is due at or after the target, so no POST goes stale, and
// targets on the tick grid put the scheduler's steal barriers exactly
// where a single drain would: the drain summary stays a pure function
// of the tape, whatever the wall-clock timing of the advances.
type advancer struct {
	mu     sync.Mutex
	at     []float64
	acked  []bool
	n      int // acknowledged arrivals
	prefix int
	sent   float64
	last   time.Time
}

func newAdvancer(at []float64) *advancer {
	return &advancer{at: at, acked: make([]bool, len(at)), last: time.Now()}
}

// ack records that arrival i was acknowledged.
func (a *advancer) ack(i int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.acked[i] {
		a.acked[i] = true
		a.n++
	}
	for a.prefix < len(a.acked) && a.acked[a.prefix] {
		a.prefix++
	}
}

// acknowledged reports how many arrivals were acknowledged.
func (a *advancer) acknowledged() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// advance sends the clock advance that is due, if any. Load phases run
// it after an operation is timed: an advance steps the scheduler, which
// absorbs every session's events into the sink, and that cost belongs
// to the advance, not to the POST that happened to precede it. It still
// holds its client, so the operations due meanwhile wait for it.
func (a *advancer) advance(c *client) error {
	target, ok := a.due()
	if !ok {
		return nil
	}
	if err := c.advanceTo(target); err != nil {
		return fmt.Errorf("advancing the clock: %w", err)
	}
	return nil
}

// due claims the next advance when one is due, returning its target in
// simulated minutes.
func (a *advancer) due() (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.prefix == 0 || time.Since(a.last) < advanceEvery {
		return 0, false
	}
	target := math.Floor(a.at[a.prefix-1]/tickMinutes) * tickMinutes
	if target <= a.sent {
		return 0, false
	}
	a.sent, a.last = target, time.Now()
	return target, true
}

// advanceTo moves the gateway's simulated clock to an absolute time.
func (c *client) advanceTo(minutes float64) error {
	body, err := json.Marshal(map[string]float64{"to_minutes": minutes})
	if err != nil {
		return err
	}
	return c.call(http.MethodPost, "/v1/sim/advance", "advance", body, http.StatusOK, nil)
}
