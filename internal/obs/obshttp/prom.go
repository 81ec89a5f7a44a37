// Package obshttp is the live observability service layer over
// internal/obs: it renders a Registry snapshot in Prometheus text
// exposition format and serves it — together with a JSON progress
// feed, the folded cost profile and net/http/pprof — from one
// http.Handler.
//
// The exporter is strictly snapshot-only: every scrape calls
// Registry.Snapshot() and renders the returned samples. It never
// installs hooks, resolves metrics, or touches the simulators, so the
// charged costs of a run are bit-identical whether or not anything is
// scraping (see DESIGN.md, "Why the exporter is snapshot-only").
package obshttp

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// defaultQuantiles are the quantile lines emitted per histogram when
// Options.Quantiles is nil.
var defaultQuantiles = []float64{0.5, 0.95, 0.99}

// WriteProm renders a registry snapshot in Prometheus text exposition
// format. Metric names are sanitized (dots become underscores:
// "hmm.cost.total" → hmm_cost_total). Kinds map as
//
//	counter → counter
//	float   → counter (monotone cost sums)
//	gauge   → gauge
//	hist    → histogram (cumulative le buckets, _sum, _count) plus a
//	          companion <name>_quantile gauge family with one line per
//	          requested quantile, estimated by obs.Histogram bucket
//	          interpolation from the snapshot's buckets
//
// Samples arrive sorted from Snapshot, so output is deterministic for
// a given registry state.
func WriteProm(w io.Writer, samples []obs.Sample, quantiles []float64) error {
	if quantiles == nil {
		quantiles = defaultQuantiles
	}
	for _, s := range samples {
		name := promName(s.Name)
		var err error
		switch s.Kind {
		case "counter", "float":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", name, name, promFloat(s.Value))
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Value))
		case "hist":
			err = writePromHist(w, name, s, quantiles)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writePromHist renders one histogram sample as cumulative le buckets
// plus the companion quantile gauge family.
func writePromHist(w io.Writer, name string, s obs.Sample, quantiles []float64) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum int64
	for k, n := range s.Buckets {
		cum += n
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, bucketUpper(k), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, s.Count, name, promFloat(s.Value), name, s.Count); err != nil {
		return err
	}
	if s.Count == 0 || len(quantiles) == 0 {
		return nil
	}
	// Rebuild a histogram from the snapshot's buckets so the quantile
	// lines come from the same estimator the sweep ETA uses.
	var h obs.Histogram
	//lint:ignore snapshotonly h is a scratch local rebuilt from the immutable snapshot, not shared state
	h.AddBuckets(s.Buckets, int64(s.Value))
	if _, err := fmt.Fprintf(w, "# TYPE %s_quantile gauge\n", name); err != nil {
		return err
	}
	for _, q := range quantiles {
		if _, err := fmt.Fprintf(w, "%s_quantile{quantile=%q} %s\n",
			name, promFloat(q), promFloat(h.Quantile(q))); err != nil {
			return err
		}
	}
	return nil
}

// bucketUpper returns the inclusive upper bound of pow2 bucket k as the
// Prometheus le label: bucket k holds integer values in
// [2^(k-1), 2^k - 1] (bucket 0 holds values <= 0).
func bucketUpper(k int) string {
	_, hi := obs.BucketRange(k)
	return strconv.FormatInt(hi-1, 10)
}

// promFloat renders a value the way Prometheus text format expects.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName sanitizes a registry metric name into the Prometheus
// identifier charset [a-zA-Z0-9_:] (leading digits get an underscore).
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
