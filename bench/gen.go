package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonArrivals returns n due-time offsets of a Poisson process of the
// given rate (per second), drawn from rng: exponential gaps, cumulated.
func poissonArrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// zipfPicker draws indexes in [0, n) with Zipf(s) popularity: index 0 is
// the hottest. s must be > 1.
func zipfPicker(rng *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// clock is the time source of the open-loop scheduler, so tests can
// drive it with a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// scheduled is one open-loop request: due is its offset from the start
// of the window.
type scheduled struct {
	due time.Duration
	req *request
}

// openSample is the timing of one open-loop request, as offsets from
// the window start.
type openSample struct {
	req             *request
	due, sent, done time.Duration
	// slept reports that a connection was free before the request was
	// due, so sent−due is the generator's own lateness (timer and
	// scheduling); otherwise it is the wait for a free connection.
	slept bool
	res   result
}

// latency counts from the request's arrival. A request that found
// every connection busy arrived when it was due, so the stall that
// delayed it is charged to it. A request the generator slept for arrived
// when the timer fired: this kernel's timers are tick-granular (about
// 0.5 ms late on average, whatever xtqd does), and counting that from
// due would add the instrument's error to every latency.
func (s openSample) latency() time.Duration {
	if s.slept {
		return s.done - s.sent
	}
	return s.done - s.due
}

func (s openSample) lateness() time.Duration { return s.sent - s.due }

// runOpenLoop sends sched in due order over conns workers. A worker
// takes the next unsent entry, sleeps until it is due (never sends
// early), sends, and records the sample; with every worker busy the
// next entry goes out late, and that wait is part of its latency. It
// returns once every entry has completed.
func runOpenLoop(clk clock, sched []scheduled, conns int, send func(worker int, req *request) result) []openSample {
	out := make([]openSample, len(sched))
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				s := sched[i]
				wait := s.due - clk.Now().Sub(start)
				if wait > 0 {
					clk.Sleep(wait)
				}
				sent := clk.Now().Sub(start)
				res := send(worker, s.req)
				out[i] = openSample{req: s.req, due: s.due, sent: sent, done: clk.Now().Sub(start), slept: wait > 0, res: res}
			}
		}(c)
	}
	wg.Wait()
	return out
}
