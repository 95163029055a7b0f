package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one operation as the load generator saw it. Times are
// offsets from the start of the phase.
type Sample struct {
	Op   int           // index into the phase's operation stream
	Due  time.Duration // when an open loop meant to send it (closed loop: Sent)
	Sent time.Duration
	Done time.Duration
	Err  bool
}

// Latency is the time from when the request was due until it
// completed: in an open loop this includes any wait that a stall
// earlier in the schedule imposed on it.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind its schedule the generator sent the request.
func (s Sample) Late() time.Duration { return s.Sent - s.Due }

// Schedule returns n due times at a mean rate of rps requests per
// second. Each gap is the mean gap scaled by a uniform jitter in
// [0.5, 1.5), drawn from rng.
func Schedule(n int, rps float64, rng *rand.Rand) []time.Duration {
	gap := float64(time.Second) / rps
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		due[i] = time.Duration(t)
		t += gap * (0.5 + rng.Float64())
	}
	return due
}

// OpenLoop sends operation i at due[i] whatever the system's state, from
// at most workers goroutines. When every worker is busy the next request
// goes out late; its latency still counts from its due time, so a stall
// shows in every request it delays (no coordinated omission). do
// performs operation i and reports whether it failed.
func OpenLoop(workers int, due []time.Duration, do func(i int) error) []Sample {
	samples := make([]Sample, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				err := do(i)
				samples[i] = Sample{Op: i, Due: due[i], Sent: sent, Done: time.Since(start), Err: err != nil}
			}
		}()
	}
	wg.Wait()
	return samples
}

// ClosedLoop runs workers goroutines that each send their next request
// as soon as the previous one completes, until d has passed. Operations
// are taken in order from one shared stream starting at first. It
// returns the samples in completion order and the elapsed wall time.
func ClosedLoop(workers int, d time.Duration, first int, do func(i int) error) ([]Sample, time.Duration) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		samples []Sample
		wg      sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []Sample
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				sent := time.Since(start)
				err := do(i)
				local = append(local, Sample{Op: i, Due: sent, Sent: sent, Done: time.Since(start), Err: err != nil})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// Cycles is a measurement made of alternating windows: an open-loop
// window, then a closed-loop window, k times over. Alternating lets both
// loops see the same machine states, and per-window figures let a
// median discard a window that a passing disturbance spoiled.
type Cycles struct {
	Open    [][]Sample // per window; Op indexes the whole operation stream
	Closed  [][]Sample
	Elapsed []time.Duration // wall time of each closed-loop window
}

// RunCycles splits the open-loop schedule due into k windows of equal
// request counts and runs each, followed by a closed-loop window of
// length closed. Open-loop request j is operation j; the closed loops
// take operations from len(due) on.
func RunCycles(k, workers int, due []time.Duration, closed time.Duration, do func(i int) error) Cycles {
	var c Cycles
	next := len(due)
	for w := 0; w < k; w++ {
		lo, hi := w*len(due)/k, (w+1)*len(due)/k
		window := make([]time.Duration, hi-lo)
		for j := range window {
			window[j] = due[lo+j] - due[lo]
		}
		open := OpenLoop(workers, window, func(i int) error { return do(lo + i) })
		for j := range open {
			open[j].Op += lo
		}
		c.Open = append(c.Open, open)
		samples, elapsed := ClosedLoop(workers, closed, next, do)
		next += len(samples)
		c.Closed = append(c.Closed, samples)
		c.Elapsed = append(c.Elapsed, elapsed)
	}
	return c
}

// AllOpen and AllClosed concatenate the windows.
func (c Cycles) AllOpen() []Sample   { return slices.Concat(c.Open...) }
func (c Cycles) AllClosed() []Sample { return slices.Concat(c.Closed...) }

// ClosedRates is each closed-loop window's completed requests per
// second.
func (c Cycles) ClosedRates() []float64 {
	out := make([]float64, len(c.Closed))
	for i, s := range c.Closed {
		out[i] = float64(succeeded(s)) / c.Elapsed[i].Seconds()
	}
	return out
}
