package gateway

import (
	"sync"
	"time"
)

// Clock is the gateway's injectable time source, in simulated-clock
// units (a Duration since the service epoch — the same timeline every
// session TTM, queue delay and obs event timestamp lives on).
//
// This is the wall-clock/sim-clock bridge the fleet scheduler needs:
// the scheduler itself never reads time, it only receives watermarks
// (fleet.Scheduler.StepTo), so WHERE the watermark comes from is a
// pluggable policy. A WallClock maps real elapsed time onto the
// simulated timeline for the long-lived service; a SimClock advances
// only when told to, which is what makes the whole HTTP surface — and
// experiment E15 through it — deterministically testable: same seed,
// same arrival timestamps, same advance calls, byte-identical results
// at any client concurrency.
type Clock interface {
	// Now returns the current simulated time.
	Now() time.Duration
}

// AdvanceClock is a Clock whose time moves only under explicit control
// — the test/sim-harness side of the bridge.
type AdvanceClock interface {
	Clock
	// AdvanceTo moves the clock forward to t (never backward) and
	// returns the new now.
	AdvanceTo(t time.Duration) time.Duration
}

// SimClock is a manually advanced simulated clock. Safe for concurrent
// use.
type SimClock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewSimClock returns a simulated clock at time zero.
func NewSimClock() *SimClock { return &SimClock{} }

// Now implements Clock.
func (c *SimClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AdvanceTo implements AdvanceClock.
func (c *SimClock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Advance moves the clock forward by d (negative d is a no-op) and
// returns the new now.
func (c *SimClock) Advance(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now += d
	}
	return c.now
}

// WallClock maps real elapsed time onto the simulated timeline: one
// wall second is Scale of simulated time. The default scale (one wall
// second = one simulated minute) lets a demo service work through
// hour-scale incident timelines interactively; Scale = time.Second
// runs the timeline in real time.
type WallClock struct {
	start  time.Time
	offset time.Duration // simulated time already elapsed at start
	scale  time.Duration // simulated time per wall second
}

// NewWallClockAt starts a wall clock at the given simulated offset —
// the journal-recovery path: a restarted daemon resumes the simulated
// timeline from the journal's high-water mark instead of time zero, so
// recovered arrivals are never stamped in the scheduler's past.
func NewWallClockAt(offset, scale time.Duration) *WallClock {
	if scale <= 0 {
		scale = time.Minute
	}
	if offset < 0 {
		offset = 0
	}
	return &WallClock{start: time.Now(), offset: offset, scale: scale}
}

// Now implements Clock.
func (c *WallClock) Now() time.Duration {
	elapsed := time.Since(c.start)
	return c.offset + time.Duration(elapsed.Seconds()*float64(c.scale))
}

// WallOf converts a simulated duration to the wall-clock time it takes
// to elapse at this clock's scale — how the gateway renders Retry-After
// headers in real seconds.
func (c *WallClock) WallOf(d time.Duration) time.Duration {
	return time.Duration(float64(d) / float64(c.scale) * float64(time.Second))
}
