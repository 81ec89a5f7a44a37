package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(100)
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}, {99.5, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
}

// The tail rule: a percentile is reported as resting on enough samples
// only with minBeyond of them above it, so p99 needs 1000 samples and
// p90 needs 100.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 99, 9, false},
		{3000, 99, 30, true},
		{100, 90, 10, true},
		{99, 90, 9, false},
		{20, 50, 10, true},
		{19, 50, 9, false},
		{0, 99, 0, false},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, p%v) = %t, want %t", c.n, c.p, got, c.ok)
		}
	}
	r := tail("hit_p99_ms", series(ramp(999)), 99)
	if !r.Few || r.N != 999 {
		t.Errorf("tail row over 999 samples = %+v, want few-samples with n=999", r)
	}
	if r := tail("hit_p99_ms", series(ramp(1000)), 99); r.Few || r.Value != 990 {
		t.Errorf("tail row over 1000 samples = %+v, want p99 = 990 without the mark", r)
	}
}

// throughput divides total work by the sum of per-item medians: one
// slow pass moves no median, and an item never timed counts neither
// work nor time.
func TestThroughputSumsItemMedians(t *testing.T) {
	var a, b, never series
	for _, d := range []time.Duration{time.Millisecond, time.Millisecond, 50 * time.Millisecond} {
		a.add(d)
	}
	for _, d := range []time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond} {
		b.add(d)
	}
	rate, sum := throughput([]int64{10, 20, 1000}, []series{a, b, never})
	if sum != 4 {
		t.Errorf("sum of medians = %v ms, want 4", sum)
	}
	if rate != 30/0.004 {
		t.Errorf("rate = %v/s, want %v", rate, 30/0.004)
	}
	if rate, sum := throughput([]int64{5}, []series{nil}); rate != 0 || sum != 0 {
		t.Errorf("no samples: rate %v, sum %v, want 0, 0", rate, sum)
	}
}
