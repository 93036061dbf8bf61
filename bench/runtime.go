package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler samples the process's resident set size while a phase is
// measured. Its median is the memory the phase keeps resident; the peak
// (getrusage's maxrss) swings with when garbage collections happen to
// fall and repeats poorly from run to run.
type rssSampler struct {
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, ok := rssMB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// median stops the sampler and returns the median sample in MiB.
func (s *rssSampler) median() float64 {
	close(s.stop)
	<-s.done
	return newDist(s.samples).p50()
}

// rssMB reads the resident set size from /proc/self/statm.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// cpuTicks is the machine-wide CPU time of /proc/stat's first line, in
// clock ticks: all of it, and the part the hypervisor gave to other
// guests while this one had work to run (steal).
type cpuTicks struct{ total, steal uint64 }

// readSteal reads cpuTicks. On a shared VM a run's timings move with
// the steal share, so every run reports it beside its metrics.
func readSteal() (cpuTicks, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...];
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// shareSince is the share of the CPU time since start that was stolen.
func (t cpuTicks) shareSince(start cpuTicks) float64 {
	if t.total <= start.total {
		return 0
	}
	return float64(t.steal-start.steal) / float64(t.total-start.total)
}

// labelSide tags the calling goroutine, and every goroutine it starts
// from now on, for the CPU profile: "client" for the load generator,
// "server" for the program under test.
func labelSide(side string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("side", side)))
}

// runtime/metrics read around a traced phase.
const (
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmAllocs   = "/gc/heap/allocs:bytes"
	rmPauses   = "/sched/pauses/total/gc:seconds"
	rmHeap     = "/memory/classes/heap/objects:bytes"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmAllocs}, {Name: rmPauses}}
	metrics.Read(s)
	return s
}

// probe brackets a traced measurement with a CPU profile, runtime
// metric deltas and a heap-peak sampler.
type probe struct {
	prof bytes.Buffer
	rt0  []metrics.Sample
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

// probe starts a traced run's probe; an untraced run gets nil.
func (e *env) probe() (*probe, error) {
	if e.tr == nil {
		return nil, nil
	}
	return startProbe()
}

func startProbe() (*probe, error) {
	p := &probe{stop: make(chan struct{})}
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return nil, err
	}
	p.rt0 = readRuntime()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		s := []metrics.Sample{{Name: rmHeap}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak.Load() {
				p.peak.Store(v)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p, nil
}

// finish stops the probe and adds the cpu.*, gc.*, runtime.* and
// heap.* layer metrics; ops is the operation count allocations are
// charged to.
func (p *probe) finish(ops int64, layers map[string]float64) error {
	pprof.StopCPUProfile()
	close(p.stop)
	p.wg.Wait()
	rt1 := readRuntime()

	shares, err := cpuShares(p.prof.Bytes())
	if err != nil {
		return err
	}
	for k, v := range shares {
		layers[k] = v
	}
	if cpu := rt1[1].Value.Float64() - p.rt0[1].Value.Float64(); cpu > 0 {
		layers["gc.cpu_fraction"] = (rt1[0].Value.Float64() - p.rt0[0].Value.Float64()) / cpu
	}
	if ops > 0 {
		layers["runtime.alloc_kb_per_op"] = float64(rt1[2].Value.Uint64()-p.rt0[2].Value.Uint64()) / 1024 / float64(ops)
	}
	layers["gc.pause_tail_ms"] = histTail(p.rt0[3].Value.Float64Histogram(), rt1[3].Value.Float64Histogram()) * 1000
	layers["heap.peak_mb"] = float64(p.peak.Load()) / (1 << 20)
	return nil
}

// histTail returns the tail percentile (see tail) of the observations
// a runtime histogram gained between two reads, as the upper bound of
// the bucket holding it.
func histTail(a, b *metrics.Float64Histogram) float64 {
	counts := make([]uint64, len(b.Counts))
	var n uint64
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(tailPct(int(n)) / 100 * float64(n)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}
