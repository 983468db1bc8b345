package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls one request for a second must show the stall
// in the latency of every request queued behind it, while the
// generator itself stays on schedule.
func TestOpenLoopChargesAStallToEveryRequestBehindIt(t *testing.T) {
	const (
		n        = 80
		interval = 20 * time.Millisecond
		stallAt  = 10
		stall    = time.Second
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()
	fire := func(int) bool {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	shots := openLoop(time.Now().Add(10*time.Millisecond), n, interval, 1, fire)

	stallEnd := shots[stallAt].due.Add(stall)
	queued := 0
	for i, s := range shots {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if late := s.late(); late > 15*time.Millisecond {
			t.Errorf("request %d dispatched %v late: the generator waited on the server", i, late)
		}
		if i <= stallAt || !s.due.Before(stallEnd) {
			continue
		}
		queued++
		if min := stallEnd.Sub(s.due); s.latency(reqTimeout) < min {
			t.Errorf("request %d (due %v into the stall) has latency %v, want ≥ %v",
				i, s.due.Sub(shots[stallAt].due), s.latency(reqTimeout), min)
		}
	}
	if queued < 45 {
		t.Fatalf("only %d requests were due during the stall", queued)
	}
	if got := shots[stallAt].latency(reqTimeout); got < stall {
		t.Errorf("stalled request latency %v < %v", got, stall)
	}
}

func TestFailedRequestsCountAsTheTimeout(t *testing.T) {
	s := shot{due: time.Unix(0, 0), done: time.Unix(0, int64(time.Millisecond)), ok: false}
	if got := s.latency(reqTimeout); got != reqTimeout {
		t.Errorf("failed request latency = %v, want the %v timeout", got, reqTimeout)
	}
}
