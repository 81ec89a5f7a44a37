package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter, one float counter and one
// histogram from many goroutines; run under -race this doubles as the
// data-race check for the registry and every metric kind.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve through the registry inside the goroutine so the
			// create-on-first-use path races too.
			c := reg.Counter("c")
			f := reg.FloatCounter("f")
			h := reg.Histogram("h")
			g := reg.Gauge("g")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				f.Add(0.5)
				h.Observe(int64(i % 100))
				g.Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.FloatCounter("f").Value(); got != workers*perWorker*0.5 {
		t.Errorf("float counter = %g, want %g", got, float64(workers*perWorker)*0.5)
	}
	if got := reg.Histogram("h").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestNilReceiversNoop(t *testing.T) {
	var (
		c *Counter
		f *FloatCounter
		g *Gauge
		h *Histogram
		r *Registry
		o *Observer
	)
	c.Add(5)
	c.Inc()
	f.Add(1.5)
	f.Set(2)
	g.Set(3)
	h.Observe(4)
	h.AddBuckets([]int64{0, 0, 7}, 14)
	if c.Value() != 0 || f.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
	if h.Buckets() != nil {
		t.Error("nil histogram must have no buckets")
	}
	if r.Counter("x") != nil || r.FloatCounter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry must return nil metrics")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
	o.Counter("x").Inc()
	o.Emit(Event{Kind: "k"})
	if o.Tracing() {
		t.Error("nil observer must not report tracing")
	}
	if err := o.Close(); err != nil {
		t.Errorf("nil observer Close: %v", err)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// BucketRange must invert BucketOf: every value lands inside its
	// bucket's range.
	for _, c := range cases {
		if c.v < 0 {
			continue
		}
		lo, hi := BucketRange(BucketOf(c.v))
		if c.v != 0 && (c.v < lo || c.v >= hi) {
			t.Errorf("value %d outside its bucket range [%d,%d)", c.v, lo, hi)
		}
	}

	h := &Histogram{}
	h.Observe(0)
	h.Observe(1)
	h.Observe(7)
	h.Observe(8)
	buckets := h.Buckets()
	want := []int64{1, 1, 0, 1, 1}
	if len(buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", buckets, want)
	}
	for i := range want {
		if buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", buckets, want)
		}
	}
	if h.Count() != 4 || h.Sum() != 16 {
		t.Errorf("count=%d sum=%d, want 4, 16", h.Count(), h.Sum())
	}

	// AddBuckets loads the same state in bulk, sum included.
	h2 := &Histogram{}
	h2.AddBuckets(h.Buckets(), h.Sum())
	if !reflect.DeepEqual(h2.Buckets(), h.Buckets()) || h2.Count() != 4 || h2.Sum() != 16 {
		t.Errorf("AddBuckets: buckets %v count %d sum %d, want %v, 4, 16",
			h2.Buckets(), h2.Count(), h2.Sum(), h.Buckets())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	reg.Histogram("m")
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(3)
	reg.FloatCounter("a.cost").Add(1.5)
	reg.Gauge("c.gauge").Set(-7)
	reg.Histogram("d.hist").Observe(10)
	snap := reg.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d samples, want 4", len(snap))
	}
	wantNames := []string{"a.cost", "b.count", "c.gauge", "d.hist"}
	wantKinds := []string{"float", "counter", "gauge", "hist"}
	for i := range snap {
		if snap[i].Name != wantNames[i] || snap[i].Kind != wantKinds[i] {
			t.Errorf("sample %d = %s/%s, want %s/%s",
				i, snap[i].Name, snap[i].Kind, wantNames[i], wantKinds[i])
		}
	}
	if snap[3].Count != 1 || snap[3].Value != 10 {
		t.Errorf("hist sample = count %d value %g, want 1, 10", snap[3].Count, snap[3].Value)
	}
}

// Import folds disjoint snapshots into one registry the same way a
// shared registry would have recorded them — histogram sums included,
// which bucket floors would round down (3 + 5 + 1000 to 2 + 4 + 512).
func TestImportMergesSnapshots(t *testing.T) {
	mk := func(n int64) []Sample {
		src := NewRegistry()
		src.Counter("jobs").Add(n)
		src.FloatCounter("cost").Add(float64(n) / 2)
		src.Gauge("workers").Set(n)
		src.Histogram("wall").Observe(n)
		return src.Snapshot()
	}
	dst := NewRegistry()
	var shared Histogram
	for _, n := range []int64{3, 5, 1000} {
		dst.Import(mk(n))
		shared.Observe(n)
	}
	if got := dst.Counter("jobs").Value(); got != 1008 {
		t.Errorf("counter merged to %d, want 1008", got)
	}
	if got := dst.FloatCounter("cost").Value(); got != 504 {
		t.Errorf("float merged to %g, want 504", got)
	}
	if got := dst.Gauge("workers").Value(); got != 1000 {
		t.Errorf("gauge merged to %d, want 1000 (last wins)", got)
	}
	h := dst.Histogram("wall")
	if h.Count() != 3 || h.Sum() != 1008 || !reflect.DeepEqual(h.Buckets(), shared.Buckets()) {
		t.Errorf("hist merged to count %d sum %d buckets %v, want 3, 1008, %v",
			h.Count(), h.Sum(), h.Buckets(), shared.Buckets())
	}
	var nilReg *Registry
	nilReg.Import(mk(1)) // must not panic
}

// Audit companion to the hmm.Stats.Depth sizing fix: BucketOf reaches
// bits.Len64's full range, and every reachable index must stay inside
// the histogram's bucket array (and inside hmm's Depth profile, which
// shares its bucket convention).
func TestBucketOfBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0}, {1, 1}, {2, 2},
		{1 << 47, 48}, {1 << 62, 63}, {math.MaxInt64, 63},
	}
	for _, tc := range cases {
		got := BucketOf(tc.v)
		if got != tc.want {
			t.Errorf("BucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
		if got < 0 || got >= histBuckets {
			t.Errorf("BucketOf(%d) = %d escapes [0,%d)", tc.v, got, histBuckets)
		}
	}
	// Observing the extremes must not panic and must land in-range.
	var h Histogram
	h.Observe(math.MaxInt64)
	h.Observe(math.MinInt64)
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
	// AddBuckets clamps bucket indexes past the last into it instead
	// of panicking.
	wide := make([]int64, histBuckets+11)
	wide[histBuckets+10] = 1
	h.AddBuckets(wide, 7)
	if h.Count() != 3 || h.Buckets()[histBuckets-1] != 1 {
		t.Errorf("after clamped AddBuckets: count %d, buckets %v; want 3, last bucket 1",
			h.Count(), h.Buckets())
	}
}

// TestHistogramQuantile pins the bucket-interpolation estimator: the
// quantile is located by cumulative count and interpolated linearly
// inside the containing power-of-two bucket.
func TestHistogramQuantile(t *testing.T) {
	cases := []struct {
		name    string
		observe []int64
		p       float64
		want    float64
	}{
		// 10 observations of 12: all in bucket 4 = [8,16). The median
		// target is half way through the bucket's count.
		{"uniform-single-bucket-p50", repeat(12, 10), 0.5, 12},
		{"uniform-single-bucket-p0", repeat(12, 10), 0, 8},
		{"uniform-single-bucket-p1", repeat(12, 10), 1, 16},
		// 8 obs in bucket 1 ({1}), 2 in bucket 4: p50 target 5 of 10
		// lands 5/8 into bucket 1 = [1,2).
		{"skewed-p50", append(repeat(1, 8), 12, 12), 0.5, 1.625},
		// p95 target 9.5 of 10 lands 1.5/2 into bucket 4 = [8,16).
		{"skewed-p95", append(repeat(1, 8), 12, 12), 0.95, 14},
		// Bucket 0 holds values <= 0 and spans [0,1).
		{"zeros-p50", repeat(0, 4), 0.5, 0.5},
		// Clamping.
		{"clamp-low", repeat(12, 10), -3, 8},
		{"clamp-high", repeat(12, 10), 7, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.observe {
				h.Observe(v)
			}
			if got := h.Quantile(tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %g, want %g", tc.p, got, tc.want)
			}
		})
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %g, want 0", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %g, want 0", got)
	}
}

// TestHistogramQuantileServiceEdges pins the exact edge-case values
// the dbspd /metrics p99 lines will serve: an empty histogram, a
// single observation, and an all-one-bucket distribution. Each case
// asserts an exact value — the estimator is deterministic, so any
// drift here would show up as a changed quantile line on a scrape.
func TestHistogramQuantileServiceEdges(t *testing.T) {
	cases := []struct {
		name    string
		observe []int64
		p       float64
		want    float64
	}{
		// Empty histogram: every quantile is exactly 0 (no buckets to
		// interpolate in), which is what a fresh service scrape sees
		// before the first submission.
		{"empty-p50", nil, 0.5, 0},
		{"empty-p99", nil, 0.99, 0},
		{"empty-p0", nil, 0, 0},
		{"empty-p1", nil, 1, 0},
		// Single observation of 5: bucket 3 = [4, 8), count 1, so the
		// target p*1 interpolates linearly across [4, 8): p50 → 6,
		// p99 → 7.96, the extremes hit the bucket edges exactly.
		{"single-p0", []int64{5}, 0, 4},
		{"single-p50", []int64{5}, 0.5, 6},
		{"single-p99", []int64{5}, 0.99, 7.96},
		{"single-p1", []int64{5}, 1, 8},
		// 100 observations all in bucket 4 = [8, 16): the p99 target is
		// 99 of 100, landing 99/100 into the bucket = 8 + 0.99*8.
		{"one-bucket-p50", repeat(12, 100), 0.5, 12},
		{"one-bucket-p99", repeat(12, 100), 0.99, 15.92},
		{"one-bucket-p1", repeat(12, 100), 1, 16},
		// A single zero observation lands in bucket 0 = [0, 1).
		{"single-zero-p99", []int64{0}, 0.99, 0.99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.observe {
				h.Observe(v)
			}
			if got := h.Quantile(tc.p); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %g, want %g", tc.p, got, tc.want)
			}
		})
	}
	// The same edges through AddBuckets (the Import path a service
	// registry takes when folding job snapshots): one pre-bucketed
	// observation in bucket 3 behaves exactly like Observe(5) did.
	var h Histogram
	h.AddBuckets([]int64{0, 0, 0, 1}, 5)
	if got := h.Quantile(0.99); math.Abs(got-7.96) > 1e-12 {
		t.Errorf("AddBuckets single-bucket Quantile(0.99) = %g, want 7.96", got)
	}
}

// repeat returns n copies of v.
func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
