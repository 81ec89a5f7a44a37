package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/obshttp"
)

// The engine's throughput counters must partition the submitted job
// count the same way the simulators' cost phases partition their
// totals: every job is started or skipped, and every started job
// completes or fails.
func TestThroughputCountersPartitionJobs(t *testing.T) {
	const n = 10
	jobs := make([]Job, n)
	for i := range jobs {
		fail := i == 4
		jobs[i] = Job{ID: fmt.Sprintf("J%d", i), Run: func(ctx context.Context, p Params) (any, error) {
			if fail {
				return nil, errors.New("boom")
			}
			return nil, nil
		}}
	}
	for _, keepGoing := range []bool{false, true} {
		reg := obs.NewRegistry()
		_, err := Run(context.Background(), jobs, Options{
			Workers: 1, KeepGoing: keepGoing, Obs: obs.New(reg, nil),
		})
		if err == nil {
			t.Fatalf("keepGoing=%v: expected first-failure error", keepGoing)
		}
		started := reg.Counter("sweep.jobs.started").Value()
		completed := reg.Counter("sweep.jobs.completed").Value()
		failed := reg.Counter("sweep.jobs.failed").Value()
		skipped := reg.Counter("sweep.jobs.skipped").Value()
		if started+skipped != n {
			t.Errorf("keepGoing=%v: started(%d)+skipped(%d) != %d submitted",
				keepGoing, started, skipped, n)
		}
		if completed+failed != started {
			t.Errorf("keepGoing=%v: completed(%d)+failed(%d) != started(%d)",
				keepGoing, completed, failed, started)
		}
		if failed != 1 {
			t.Errorf("keepGoing=%v: failed = %d, want 1", keepGoing, failed)
		}
		if keepGoing && (skipped != 0 || completed != n-1) {
			t.Errorf("keep-going run skipped %d completed %d", skipped, completed)
		}
		if !keepGoing && skipped != n-5 {
			t.Errorf("fail-fast run skipped %d, want %d", skipped, n-5)
		}
		if wall := reg.Histogram("sweep.job.wall_ms").Count(); wall != started {
			t.Errorf("keepGoing=%v: wall histogram count %d != started %d",
				keepGoing, wall, started)
		}
		if w := reg.Gauge("sweep.workers").Value(); w != 1 {
			t.Errorf("sweep.workers = %d, want 1", w)
		}
	}
}

// TestScrapeWhileSweepRaces is the -race check for the live export
// path: every worker hammers counters, float counters and histograms
// on one shared registry (via the LiveMetrics fold and directly) while
// a scrape loop snapshots the registry, renders it in Prometheus text
// format and polls the progress tracker — exactly what a /metrics +
// /debug/progress scraper does against a running sweep. Every job
// waits for the loop's first completed scrape, so the sweep cannot
// finish before the scraper has run, and the loop is joined before
// any assertion.
func TestScrapeWhileSweepRaces(t *testing.T) {
	reg := obs.NewRegistry()
	prog := NewProgress()
	prof := obs.NewProfile()
	shared := obs.New(reg, nil)

	// scraped is closed after the first completed scrape, or when the
	// loop exits early, so no job can wait forever.
	scraped := make(chan struct{})
	var release sync.Once
	releaseJobs := func() { release.Do(func() { close(scraped) }) }

	const n = 64
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("J%02d", i), Run: func(ctx context.Context, p Params) (any, error) {
			<-scraped
			for k := 0; k < 100; k++ {
				// Direct writes to the shared engine registry, racing the
				// scrape loop's Snapshot.
				shared.Counter("test.shared.ops").Inc()
				shared.FloatCounter("test.shared.cost").Add(0.5)
				shared.Histogram("test.shared.depth").Observe(int64(k))
				// Writes to the job's private registry, racing the
				// LiveMetrics fold of other jobs.
				p.Obs.Counter("test.job.ops").Inc()
				p.Obs.FloatCounter("test.job.cost").Add(1.25)
				p.Obs.Histogram("test.job.depth").Observe(int64(k))
				p.Obs.Profile().Add(1, "phase")
			}
			return nil, nil
		}}
	}

	stop := make(chan struct{})
	scrapes := new(atomic.Int64)
	var loop sync.WaitGroup
	loop.Add(1)
	go func() {
		defer loop.Done()
		defer releaseJobs()
		for {
			select {
			case <-stop:
				return
			default:
			}
			samples := reg.Snapshot()
			if err := obshttp.WriteProm(io.Discard, samples, nil); err != nil {
				t.Errorf("WriteProm: %v", err)
				return
			}
			_ = prog.Snapshot()
			_ = prof.Folded()
			scrapes.Add(1)
			releaseJobs()
		}
	}()

	outcomes, err := Run(context.Background(), jobs, Options{
		Workers: 8, Metrics: true, LiveMetrics: true,
		Obs: shared, Progress: prog, Profile: prof,
	})
	close(stop)
	loop.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != n {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), n)
	}
	if got := reg.Counter("test.shared.ops").Value(); got != n*100 {
		t.Errorf("shared ops = %d, want %d", got, n*100)
	}
	// The LiveMetrics fold must account for every job's private writes.
	if got := reg.Counter("test.job.ops").Value(); got != n*100 {
		t.Errorf("folded job ops = %d, want %d", got, n*100)
	}
	if got := reg.Histogram("test.job.depth").Count(); got != n*100 {
		t.Errorf("folded job depth count = %d, want %d", got, n*100)
	}
	s := prog.Snapshot()
	if !s.Done || s.Completed != n {
		t.Errorf("progress done=%v completed=%d, want true/%d", s.Done, s.Completed, n)
	}
	if scrapes.Load() == 0 {
		t.Error("scrape loop never ran")
	}
}
