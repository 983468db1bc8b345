package main

import (
	"sync"
	"time"
)

// shot is the record of one open-loop request.
type shot struct {
	due        time.Time // when the schedule said to send it
	dispatched time.Time // when the generator handed it to a worker
	done       time.Time // when its response (or error) arrived
	ok         bool      // false: error, refusal or timeout
}

// latency is the request's latency counted from its due time, so a
// request that queued behind a stalled one is charged the wait.
// Failed requests count as the timeout.
func (s shot) latency(timeout time.Duration) time.Duration {
	if !s.ok {
		return timeout
	}
	return s.done.Sub(s.due)
}

// late is how far behind schedule the generator itself handed the
// request over.
func (s shot) late() time.Duration { return s.dispatched.Sub(s.due) }

// openLoop sends n requests on a fixed schedule — request i is due at
// start+i·interval whether or not earlier ones have finished — over
// at most workers concurrent callers. fire performs request i and
// reports success. The dispatcher never waits for a worker: requests
// due while every worker is busy queue in order, and their latency
// includes that wait.
func openLoop(start time.Time, n int, interval time.Duration, workers int, fire func(i int) bool) []shot {
	shots := make([]shot, n)
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ok := fire(i)
				shots[i].done, shots[i].ok = time.Now(), ok
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		shots[i].due, shots[i].dispatched = due, time.Now()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return shots
}
