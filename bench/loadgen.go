package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"autoscale/internal/serve"
)

// poissonSchedule pre-computes n arrival offsets of a Poisson process at
// rate requests per second, from the seed alone.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop sends request i when the clock reaches start+due[i], whether or
// not earlier requests have completed: one generator (the calling
// goroutine, spin-waiting on now) and one collector goroutine. Every
// latency is measured from the request's due time, never from when the
// generator got round to sending it, so a stall anywhere — in the program
// or in the generator itself — is charged to every request that was due
// during it (no coordinated omission). lag receives how late each send
// was; done receives each response with its due time, in send order, on the
// collector goroutine.
//
// The generator yields its P on every turn of the wait loop. A submit readies
// the router's dispatcher on the generator's own P; a generator that spins
// without yielding keeps that P, so the dispatcher runs only once the other P
// steals it — and the Go scheduler sleeps before stealing a just-readied
// goroutine (usleep(3), 55 us and more inside a VM). With a non-yielding
// generator that sleep was the whole of router_open's median latency, 65 to
// 97 us against 6.5 us with the yield, and it rose to 630 us whenever the
// host was busy. Requests that arrive over a network are handed over by a
// goroutine that then blocks, which frees its P the same way.
func openLoop(now func() time.Time, due []time.Duration,
	submit func(i int) (<-chan serve.Response, error),
	lag func(i int, late time.Duration),
	done func(i int, dueAt time.Time, resp serve.Response, err error)) {

	type sent struct {
		ch  <-chan serve.Response
		err error
	}
	// Sized to the whole schedule so the generator never blocks on the
	// collector: a blocked generator would be coordinated omission.
	pipe := make(chan sent, len(due))
	start := now()
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		i := 0
		for s := range pipe {
			var resp serve.Response
			if s.err == nil {
				resp = <-s.ch
			}
			done(i, start.Add(due[i]), resp, s.err)
			i++
		}
	}()
	for i, d := range due {
		dueAt := start.Add(d)
		t := now()
		for t.Before(dueAt) {
			runtime.Gosched()
			t = now()
		}
		lag(i, t.Sub(dueAt))
		ch, err := submit(i)
		pipe <- sent{ch, err}
	}
	close(pipe)
	<-collected
}

// clampNS narrows a duration to the int32 nanosecond samples the harness
// stores (2.1 s ceiling; anything slower is already off every chart).
func clampNS(d time.Duration) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	if d < 0 {
		return 0
	}
	return int32(d)
}
