package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/det"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe for concurrent use and safe on a nil receiver (no-ops), so
// instrumented code pays only a nil check when observability is off.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter accumulates a float64 sum (model cost is fractional for
// f(x) = x^α). Add uses a CAS loop; nil receivers no-op.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates x into the sum.
func (c *FloatCounter) Add(x float64) {
	if c == nil {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + x)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Set overwrites the value — used for totals copied verbatim from a
// machine's cost accumulator so reports match returned costs exactly.
func (c *FloatCounter) Set(x float64) {
	if c == nil {
		return
	}
	c.bits.Store(math.Float64bits(x))
}

// Value returns the accumulated sum (0 on a nil receiver).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a last-value-wins integer metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(x int64) {
	if g == nil {
		return
	}
	g.v.Store(x)
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the bucket count of a Histogram: bucket k holds values
// of bit-length k, so bucket 0 = {<=0}, bucket k = [2^(k-1), 2^k).
// 64 covers the whole int64 range.
const histBuckets = 65

// Histogram counts observations in power-of-two buckets — the natural
// shape for memory-level and block-size distributions, matching the
// hmm.Stats touch-depth convention (bucket = bit-length of the value).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// BucketOf returns the bucket index of v: its bit-length (values <= 0
// land in bucket 0).
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketRange returns the half-open value interval [lo, hi) bucket k
// covers (bucket 0 is the single value 0).
func BucketRange(k int) (lo, hi int64) {
	if k <= 0 {
		return 0, 1
	}
	return int64(1) << uint(k-1), int64(1) << uint(k)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[BucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// AddBuckets records observations counted elsewhere in one call:
// buckets[k] of them in bucket k, their values totalling exactly sum.
// It loads bt.BlockStats.Sizes and a Snapshot's histogram without
// replaying each value; indexes past the last bucket clamp into it.
func (h *Histogram) AddBuckets(buckets []int64, sum int64) {
	if h == nil {
		return
	}
	var count int64
	for k, n := range buckets {
		if n != 0 {
			h.buckets[min(k, histBuckets-1)].Add(n)
			count += n
		}
	}
	h.count.Add(count)
	h.sum.Add(sum)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the p-quantile of the observed distribution,
// estimated from the power-of-two buckets: the containing bucket is
// located by cumulative count and the value is interpolated linearly
// inside its [lo, hi) range (the only information the buckets retain).
// p is clamped to [0, 1]; an empty (or nil) histogram reports 0. The
// estimate is exact at bucket edges and within a factor of two
// everywhere, which is all the exporter's p50/p95/p99 lines and the
// sweep ETA need.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	count := h.count.Load()
	if count <= 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(count)
	var cum float64
	last := 0
	for k := 0; k < histBuckets; k++ {
		n := float64(h.buckets[k].Load())
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := BucketRange(k)
			frac := (target - cum) / n
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
		last = k
	}
	// Float rounding pushed target past the summed counts; report the
	// upper edge of the last populated bucket.
	_, hi := BucketRange(last)
	return float64(hi)
}

// Buckets returns the bucket counts trimmed after the last non-zero
// bucket (nil when the histogram is empty).
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	last := -1
	var out [histBuckets]int64
	for k := range out {
		out[k] = h.buckets[k].Load()
		if out[k] != 0 {
			last = k
		}
	}
	if last < 0 {
		return nil
	}
	return append([]int64(nil), out[:last+1]...)
}

// Registry is a named collection of metrics. Lookups create the metric
// on first use; subsequent lookups return the same instance, so hot
// paths resolve their metrics once up front and then touch only
// atomics. A nil *Registry returns nil metrics from every getter,
// which no-op on use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// get returns the metric under name, creating it with mk on first use.
// It panics if the name is already registered with a different kind.
func (r *Registry) get(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// kindMismatch reports a metric name registered under two different
// kinds — a caller bug, reported with the package-prefixed panic the
// panicmsg analyzer requires.
func kindMismatch(name string, got any, want string) {
	panic(fmt.Sprintf("obs: metric %q registered as %T, requested as %s", name, got, want))
}

// Counter returns the counter registered under name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.get(name, func() any { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		kindMismatch(name, m, "counter")
	}
	return c
}

// FloatCounter returns the float counter registered under name.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	if r == nil {
		return nil
	}
	m := r.get(name, func() any { return &FloatCounter{} })
	c, ok := m.(*FloatCounter)
	if !ok {
		kindMismatch(name, m, "float counter")
	}
	return c
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.get(name, func() any { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		kindMismatch(name, m, "gauge")
	}
	return g
}

// Histogram returns the histogram registered under name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.get(name, func() any { return &Histogram{} })
	h, ok := m.(*Histogram)
	if !ok {
		kindMismatch(name, m, "histogram")
	}
	return h
}

// Import merges a snapshot into the registry: counters and float
// counters add their values, gauges take the sample's value, and
// histograms add the sample's bucket counts and exact sum. It is how
// the sweep engine's per-job registries fold into one aggregate report
// — for counters and histograms, importing N disjoint snapshots equals
// recording into one shared registry.
func (r *Registry) Import(samples []Sample) {
	if r == nil {
		return
	}
	for _, s := range samples {
		switch s.Kind {
		case "counter":
			r.Counter(s.Name).Add(int64(s.Value))
		case "float":
			r.FloatCounter(s.Name).Add(s.Value)
		case "gauge":
			r.Gauge(s.Name).Set(int64(s.Value))
		case "hist":
			r.Histogram(s.Name).AddBuckets(s.Buckets, int64(s.Value))
		}
	}
}

// Sample is one metric's state in a Snapshot.
type Sample struct {
	// Name is the registered metric name.
	Name string
	// Kind is "counter", "float", "gauge" or "hist".
	Kind string
	// Value holds the counter/gauge/float value; for histograms, the
	// sum of observations.
	Value float64
	// Count holds the observation count of a histogram.
	Count int64
	// Buckets holds a histogram's power-of-two bucket counts, trimmed.
	Buckets []int64
}

// Snapshot returns every registered metric, sorted by name.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make(map[string]any, len(r.metrics))
	for n, m := range r.metrics {
		metrics[n] = m
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(metrics))
	for _, n := range det.SortedKeys(metrics) {
		switch m := metrics[n].(type) {
		case *Counter:
			out = append(out, Sample{Name: n, Kind: "counter", Value: float64(m.Value())})
		case *FloatCounter:
			out = append(out, Sample{Name: n, Kind: "float", Value: m.Value()})
		case *Gauge:
			out = append(out, Sample{Name: n, Kind: "gauge", Value: float64(m.Value())})
		case *Histogram:
			out = append(out, Sample{Name: n, Kind: "hist", Value: float64(m.Sum()),
				Count: m.Count(), Buckets: m.Buckets()})
		}
	}
	return out
}
