package main

import (
	"testing"
	"time"
)

func TestPublishLagAttribution(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	puts := []putEvent{
		{tenant: "a", at: at(50), step: 9},   // before the ack
		{tenant: "a", at: at(300), step: 10}, // after the ack, step too low
		{tenant: "b", at: at(400), step: 20}, // other tenant
		{tenant: "a", at: at(900), step: 12}, // first qualifying put for a
		{tenant: "a", at: at(700), step: 11}, // out of order in the log
		{tenant: "a", at: at(1500), step: 14},
	}
	acks := []ack{
		{tenant: "a", at: at(100), target: 11},  // → put at 700
		{tenant: "a", at: at(100), target: 12},  // → put at 900
		{tenant: "b", at: at(100), target: 20},  // → put at 400
		{tenant: "a", at: at(1000), target: 11}, // → put at 1500 (first after the ack)
		{tenant: "a", at: at(100), target: 99},  // never published
		{tenant: "c", at: at(100), target: 1},   // tenant never published
	}
	lags, missing := publishLags(acks, puts)
	want := []time.Duration{600 * time.Millisecond, 800 * time.Millisecond, 300 * time.Millisecond, 500 * time.Millisecond}
	if len(lags) != len(want) {
		t.Fatalf("lags = %v, want %v", lags, want)
	}
	for i := range want {
		if lags[i].d != want[i] {
			t.Errorf("lag %d = %v, want %v", i, lags[i].d, want[i])
		}
	}
	if missing != 2 {
		t.Errorf("missing = %d, want 2", missing)
	}
}
