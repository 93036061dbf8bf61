// Package parallel is the worker-pool trial runner behind every
// evaluation surface in this repository: the experiment harnesses
// (E1-E12), the A/B test, the corpus replayer, and the benches.
//
// Its core contract is *scheduling independence*: the (trial, seed)
// pairs and the order of the collected result slice depend only on the
// trial count and the base seed — never on the worker count or the
// goroutine interleaving. A deterministic trial function therefore
// produces bit-identical aggregate output at workers=1 and workers=N,
// which is what lets the experiment tables stay reproducible while the
// wall clock shrinks with cores.
//
// Trials must be self-contained: each builds its own world, model, and
// toolbox from the derived seed, and shares only immutable inputs (a
// knowledge base, a frozen history) with its siblings. A trial that
// panics is converted into a recorded *PanicError on its TrialResult —
// one crashed trial never takes down the run or the process.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// golden is the 64-bit golden-ratio constant splitmix64 increments by;
// it is odd, so trial -> base + (trial+1)*golden is injective over the
// full 64-bit ring.
const golden = 0x9e3779b97f4a7c15

// DeriveSeed maps (base seed, trial index) to the trial's private seed
// with a splitmix64 finalizer. It is a pure function — independent of
// worker count, scheduling, and call order — and injective in the trial
// index for a fixed base: distinct trials never collide.
func DeriveSeed(base int64, trial int) int64 {
	z := uint64(base) + (uint64(trial)+1)*golden
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// TrialFunc runs one self-contained trial. It must derive all randomness
// from seed and must not mutate state shared with other trials.
type TrialFunc[T any] func(seed int64, trial int) T

// TrialResult is the recorded outcome of one trial. RunTrials returns
// trial i's result at index i, whichever worker ran it when.
type TrialResult[T any] struct {
	Value   T
	Err     error // non-nil iff the trial panicked; *PanicError
	Elapsed time.Duration
}

// PanicError records a trial that panicked: the run keeps going and the
// crash becomes data instead of taking the process down.
type PanicError struct {
	Trial int
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: trial %d panicked: %v", e.Trial, e.Value)
}

// Workers normalizes a worker-count knob: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS), and the count never exceeds n so
// tiny runs don't spawn idle goroutines.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunTrials executes n independent trials of fn over a bounded worker
// pool and returns their results indexed by trial. Trial i always
// receives DeriveSeed(base, i); results land at slice position i. The
// returned slice is identical for any workers value — concurrency is
// invisible except in wall-clock time.
func RunTrials[T any](n, workers int, base int64, fn TrialFunc[T]) []TrialResult[T] {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	results := make([]TrialResult[T], n)

	// Workers pull the next trial index from an atomic counter and write
	// into their own slot; slots are disjoint, so no further locking is
	// needed and result order is trial order by construction.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = runOne(i, DeriveSeed(base, i), fn)
			}
		}()
	}
	wg.Wait()
	return results
}

// runOne executes a single trial with panic capture and timing.
func runOne[T any](trial int, seed int64, fn TrialFunc[T]) (tr TrialResult[T]) {
	start := time.Now()
	defer func() {
		tr.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			tr.Err = &PanicError{Trial: trial, Value: r}
		}
	}()
	tr.Value = fn(seed, trial)
	return tr
}
