package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/netsim"
)

// Point is one time-series sample.
type Point struct {
	At time.Duration
	V  float64
}

// Recorder samples world state as the simulated clock advances,
// producing the time series production monitoring stores retain. Keys
// are "svc:<service>:loss", "svc:<service>:latency" and "overall:loss".
//
// Sampling piggybacks on clock advances (at most one sample per
// Interval), so anything that costs incident time — tool queries, OCE
// approvals, LLM inference — leaves a telemetry trail behind it, and
// intermittent faults become visible as oscillating series.
type Recorder struct {
	World    *netsim.World
	Interval time.Duration

	last   time.Duration
	series map[string][]Point
}

// NewRecorder attaches a recorder to the world's clock and takes an
// initial sample. Interval defaults to 2 minutes.
func NewRecorder(w *netsim.World, interval time.Duration) *Recorder {
	if interval <= 0 {
		interval = 2 * time.Minute
	}
	r := &Recorder{World: w, Interval: interval, last: -interval, series: map[string][]Point{}}
	r.watch()
	r.sample(w.Clock.Now())
	return r
}

// watch registers the sampling hook on the world's clock.
func (r *Recorder) watch() {
	r.World.Clock.OnAdvance(func(now time.Duration) {
		if now-r.last >= r.Interval {
			r.sample(now)
		}
	})
}

// ForkFor implements netsim.Attachment: the fork's recorder carries the
// samples taken so far and samples the fork's clock from then on,
// without taking a new sample. Each series is clipped to its length, so
// appends on either side never write the other's backing array.
func (r *Recorder) ForkFor(w *netsim.World) any {
	c := &Recorder{World: w, Interval: r.Interval, last: r.last, series: make(map[string][]Point, len(r.series))}
	for k, s := range r.series {
		c.series[k] = slices.Clip(s)
	}
	c.watch()
	return c
}

func (r *Recorder) sample(now time.Duration) {
	r.last = now
	rep := r.World.Report()
	add := func(key string, v float64) {
		r.series[key] = append(r.series[key], Point{At: now, V: v})
	}
	add("overall:loss", rep.OverallLossRate())
	for name, ss := range rep.ServiceStats {
		add("svc:"+name+":loss", ss.LossRate)
		add("svc:"+name+":latency", ss.MaxLatency)
	}
}

// Keys lists recorded series, sorted.
func (r *Recorder) Keys() []string {
	out := make([]string, 0, len(r.series))
	for k := range r.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Range returns the samples of key within [from, to], in time order.
func (r *Recorder) Range(key string, from, to time.Duration) []Point {
	var out []Point
	for _, p := range r.series[key] {
		if p.At >= from && p.At <= to {
			out = append(out, p)
		}
	}
	return out
}

// Trend classifies a series' recent behavior.
type Trend string

// Trend classes.
const (
	TrendFlat         Trend = "flat"
	TrendRising       Trend = "rising"
	TrendFalling      Trend = "falling"
	TrendIntermittent Trend = "intermittent"
)

// Classify examines the series over the lookback window ending now and
// returns its trend plus the number of threshold crossings. A series
// that crosses the threshold repeatedly is intermittent — the flapping
// signature; otherwise first-vs-last thirds decide rising/falling/flat.
func (r *Recorder) Classify(key string, lookback time.Duration, threshold float64) (Trend, int) {
	now := r.World.Clock.Now()
	pts := r.Range(key, now-lookback, now)
	if len(pts) < 3 {
		return TrendFlat, 0
	}
	crossings := 0
	above := pts[0].V > threshold
	for _, p := range pts[1:] {
		if (p.V > threshold) != above {
			crossings++
			above = p.V > threshold
		}
	}
	if crossings >= 3 {
		return TrendIntermittent, crossings
	}
	third := len(pts) / 3
	if third == 0 {
		third = 1
	}
	var first, last float64
	for _, p := range pts[:third] {
		first += p.V
	}
	first /= float64(third)
	for _, p := range pts[len(pts)-third:] {
		last += p.V
	}
	last /= float64(third)
	switch {
	case last > first*1.5+1e-9 && last > threshold:
		return TrendRising, crossings
	case first > last*1.5+1e-9 && first > threshold:
		return TrendFalling, crossings
	default:
		return TrendFlat, crossings
	}
}

// String renders a compact summary of the recorder's contents.
func (r *Recorder) String() string {
	n := 0
	for _, s := range r.series {
		n += len(s)
	}
	return fmt.Sprintf("recorder{series=%d samples=%d interval=%s}", len(r.series), n, r.Interval)
}

// recorderKey is the world-attachment slot the recorder occupies.
const recorderKey = "telemetry.recorder"

// AttachRecorder creates a recorder for the world and registers it as a
// world attachment so tools can find it. Idempotent: an existing
// recorder is returned unchanged.
func AttachRecorder(w *netsim.World, interval time.Duration) *Recorder {
	if r, ok := w.Attachments[recorderKey].(*Recorder); ok {
		return r
	}
	r := NewRecorder(w, interval)
	w.Attachments[recorderKey] = r
	return r
}

// RecorderOf returns the world's attached recorder, or nil.
func RecorderOf(w *netsim.World) *Recorder {
	r, _ := w.Attachments[recorderKey].(*Recorder)
	return r
}
