// Package netsim implements a flow-level simulator of a cloud provider's
// network: data-center Clos fabrics, a dual wide-area backbone, routing,
// traffic, a capacity/loss model, a WAN traffic controller, a
// change-management log, and fault injection.
//
// The simulator is the substrate every experiment in this repository runs
// on. It is deliberately flow-level (not packet-level): incident management
// operates on telemetry aggregates — link utilization, loss rates, device
// health — and a flow-level model produces exactly those signals while
// remaining fast enough to replay thousands of incidents.
//
// All randomness is injected by callers via *rand.Rand so simulations are
// reproducible bit-for-bit given a seed.
package netsim

import (
	"fmt"
	"time"
)

// Clock is the simulated wall clock. Incident timelines, tool latencies,
// OCE approval delays and LLM inference latencies all advance this clock;
// time-to-mitigation (TTM) is read off it and never off the host clock.
type Clock struct {
	now   time.Duration
	hooks []func(time.Duration)
}

// NewClock returns a clock at simulated time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time as an offset from simulation start.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d and fires registered hooks (the
// world uses one to apply scheduled faults). Advancing by a negative
// duration panics: simulated time is monotone.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: clock advanced by negative duration %v", d))
	}
	c.now += d
	for _, h := range c.hooks {
		h(c.now)
	}
}

// OnAdvance registers a hook called after every advance with the new
// time. Hooks must not advance the clock themselves.
func (c *Clock) OnAdvance(h func(time.Duration)) { c.hooks = append(c.hooks, h) }
