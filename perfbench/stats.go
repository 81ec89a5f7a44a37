package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer samples is one slow
// outlier, not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples: ceil(p/100 · n), clamped to [1, n].
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie above the p-th percentile
// under the nearest-rank rule.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailOK reports whether n samples support the p-th percentile: at
// least minBeyond samples lie above it. p99 needs 1000 samples, p90
// needs 100.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// series accumulates timing samples for one item of a workload mix, in
// milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, ms(d)) }

// ms converts a duration to fractional milliseconds, keeping every
// digit the clock gives.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// pick keeps the series of the items keep selects and empties the
// rest, so throughput and samples see only that part of a mix.
func pick[T any](items []T, times []series, keep func(T) bool) []series {
	out := make([]series, len(times))
	for i, it := range items {
		if keep(it) {
			out[i] = times[i]
		}
	}
	return out
}

// throughput is the batch workloads' rate rule: total work divided by
// the sum of the items' median times, so a slow spell that lands in a
// few passes moves no item's median. Items without samples (a run cut
// before they ran once) count neither work nor time.
func throughput(work []int64, times []series) (perSec, sumMedianMS float64) {
	var total int64
	for i, t := range times {
		if len(t) == 0 {
			continue
		}
		total += work[i]
		sumMedianMS += median(t)
	}
	if sumMedianMS == 0 {
		return 0, 0
	}
	return float64(total) / (sumMedianMS / 1e3), sumMedianMS
}
