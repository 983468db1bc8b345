package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 200 samples would rest on two values, so the
// benchmark reports the highest percentile it can back with at least
// this many.
const minBeyond = 10

// tailLevels are the percentiles a tail may be reported at, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailLevels that has
// at least minBeyond of n samples strictly above its nearest-rank
// position, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. The epsilon keeps float error in p/100·n (99.9% of
// 10,000 is 9990.000000000002) from pushing the rank up one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (which it
// sorts in place); NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median is the middle value of xs (mean of the two middle values for
// an even count); NaN for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// durationsS converts durations to float seconds.
func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// timed is one latency sample with the time it belongs to: a request's
// due time, or the arrival of the ack a publish lag starts from.
type timed struct {
	at time.Time
	d  time.Duration
}

// windows is how many equal slices of the load the service's medians
// are taken over: each p50 is the median of the per-window p50s, so a
// disturbance confined to a few seconds moves one window, not the
// result.
const windows = 4

// window returns which of k equal windows of [start, start+span) t
// falls in, clamping times outside to the first or last.
func window(t, start time.Time, span time.Duration, k int) int {
	w := int(float64(t.Sub(start)) / float64(span) * float64(k))
	return min(max(w, 0), k-1)
}

// windowedPercentile is the median over k windows of each window's
// percentile p (nearest rank); windows without samples are skipped.
func windowedPercentile(xs []timed, start time.Time, span time.Duration, k int, p float64) time.Duration {
	per := make([][]float64, k)
	for _, x := range xs {
		w := window(x.at, start, span, k)
		per[w] = append(per[w], float64(x.d))
	}
	var ps []float64
	for _, vs := range per {
		if len(vs) > 0 {
			ps = append(ps, percentile(vs, p))
		}
	}
	return time.Duration(median(ps))
}

// durations drops the times.
func durations(xs []timed) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = x.d
	}
	return out
}
