package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{100, 90},
		{120, 90},
		{199, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{1200, 99},
		{9999, 99},
		{10000, 99.9},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, c.n-rank(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1200)
	for i := range xs {
		xs[i] = float64(1200 - i) // reverse order: percentile must sort
	}
	if got := percentile(xs, 99); got != 1188 {
		t.Errorf("p99 of 1..1200 = %g, want 1188 (12 samples beyond)", got)
	}
	if got := percentile(xs, 50); got != 600 {
		t.Errorf("p50 of 1..1200 = %g, want 600", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
}

func TestWindowedPercentileIsTheMedianOfWindows(t *testing.T) {
	start := time.Unix(0, 0)
	var xs []timed
	// Four one-second windows; the third is disturbed.
	for w, d := range []time.Duration{10, 11, 500, 12} {
		for i := 0; i < 9; i++ {
			at := start.Add(time.Duration(w)*time.Second + time.Duration(i)*100*time.Millisecond)
			xs = append(xs, timed{at: at, d: d * time.Millisecond})
		}
	}
	xs = append(xs, timed{at: start.Add(-time.Second), d: 10 * time.Millisecond}) // clamps to window 0
	got := windowedPercentile(xs, start, 4*time.Second, 4, 50)
	if want := 11500 * time.Microsecond; got != want {
		t.Errorf("windowed p50 = %v, want %v (median of 10, 11, 12, 500 ms)", got, want)
	}
}

func TestStepRateUsesPutsInsideTheWindow(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	puts := []putEvent{
		{at: at(-100), step: 1},
		{at: at(100), step: 4},
		{at: at(100), step: 4},
		{at: at(1100), step: 14},
		{at: at(5000), step: 99},
	}
	r, ok := stepRate(puts, t0, at(2000))
	if !ok || math.Abs(r-10) > 1e-9 {
		t.Errorf("stepRate = %v, %v; want 10 steps/s", r, ok)
	}
	if _, ok := stepRate(puts, at(200), at(1000)); ok {
		t.Error("a window without two distinct steps has no rate")
	}
}
