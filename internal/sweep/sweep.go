// Package sweep is the concurrent experiment-sweep engine: it runs a
// list of named jobs (experiment-table builders, parameter sweeps,
// any deterministic unit of measurement work) across a bounded worker
// pool while keeping every observable output independent of the
// scheduling. The guarantees the harness relies on:
//
//   - Stable order: Run returns one Outcome per submitted Job, in
//     submission order, regardless of which worker finished first.
//   - Deterministic seeding: every job receives a seed derived only
//     from the base seed and its own ID (SeedFor), never from worker
//     identity or completion order, so results are byte-identical for
//     any -workers value.
//   - Failure policy: by default a failing job cancels the run's
//     context and the remaining queued jobs are skipped; with KeepGoing
//     every job runs. Either way the error Run returns is the failed
//     outcome with the lowest Seq — never a completion-order pick — so
//     what callers print is as schedule-independent as the outcomes.
//   - Capture: each job's wall-clock time is recorded, and with
//     Metrics enabled each job runs against its own obs.Registry whose
//     snapshot is attached to the Outcome (merge them with
//     obs.Registry.Import for an aggregate report).
//
// Engine throughput is itself observable: Options.Obs receives the
// sweep.jobs.* counters, the sweep.job.wall_ms histogram and the
// sweep.workers gauge, so a sweep shows up in the same obs report as
// the simulations it drives.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Params is the input of one job run. Builders must be pure functions
// of Params: same Params, same result.
type Params struct {
	// Quick trims parameter sweeps for fast smoke runs.
	Quick bool
	// Seed is the job's deterministic seed, derived by SeedFor from the
	// engine's base seed and the job ID. Builders fold it into their
	// workload seeds so distinct jobs draw distinct inputs while runs
	// stay reproducible.
	Seed uint64
	// Obs carries the job's observer: a per-job registry when metric
	// capture is on, plus the engine's shared trace sink. May be nil.
	Obs *obs.Observer
}

// Job is one named unit of sweep work.
type Job struct {
	// ID identifies the job (experiment id, sweep point); it drives
	// seeding and output labelling and should be unique within a run.
	ID string
	// Run produces the job's result. It must respect ctx for early
	// cancellation on long sweeps and must not retain p.Obs past the
	// call. A panic inside Run is captured as a job failure.
	Run func(ctx context.Context, p Params) (any, error)
}

// Status classifies an Outcome.
type Status string

const (
	// StatusOK marks a job that completed successfully.
	StatusOK Status = "ok"
	// StatusFailed marks a job whose Run returned an error or panicked.
	StatusFailed Status = "failed"
	// StatusSkipped marks a job that never ran because the sweep was
	// cancelled (first failure, deadline, caller cancellation).
	StatusSkipped Status = "skipped"
)

// Outcome is one job's result.
type Outcome struct {
	// ID echoes the job ID.
	ID string
	// Seq is the job's position in submission order; Run returns
	// outcomes sorted by Seq whatever the completion order was.
	Seq int
	// Status is ok, failed or skipped.
	Status Status
	// Value is the job's result (nil unless Status is ok).
	Value any
	// Err is the failure or skip cause (nil when ok).
	Err error
	// Seed is the deterministic seed the job ran under.
	Seed uint64
	// Start is the job's start offset since the sweep began (zero when
	// skipped). Together with Wall it reconstructs the sweep's schedule
	// for timeline views.
	Start time.Duration
	// Wall is the job's wall-clock duration (zero when skipped).
	Wall time.Duration
	// Metrics is the snapshot of the job's private registry, when the
	// engine ran with Metrics enabled.
	Metrics []obs.Sample
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// KeepGoing runs every job even after failures instead of
	// cancelling the sweep at the first one.
	KeepGoing bool
	// Quick is forwarded to every job's Params.
	Quick bool
	// Seed is the base seed; each job runs under SeedFor(Seed, job.ID).
	Seed uint64
	// Metrics gives each job a private obs.Registry and attaches its
	// snapshot to the Outcome.
	Metrics bool
	// Obs receives the engine's own throughput metrics, and its Sink
	// (if any) is shared with every job for structured tracing. May be
	// nil.
	Obs *obs.Observer
	// LiveMetrics folds each finished job's metric snapshot into Obs's
	// registry as the sweep runs, so a live /metrics scrape sees
	// simulator families (hmm_*, bt_*, ...) before Run returns. The fold
	// happens in completion order — fine for the monotone counters and
	// histograms a scrape reads, but anyone needing the deterministic
	// aggregate should fold Outcome.Metrics in submission order instead.
	LiveMetrics bool
	// Progress, when non-nil, receives per-job state transitions
	// (queued → running → ok/failed/skipped) for live /debug/progress
	// polling. May be nil.
	Progress *Progress
	// Profile, when non-nil, is the run's span-stack cost profile: each
	// job's observer gets a scope under the job's ID, so simulator cost
	// attributions fold into stacks like "E05;hmm;label.3;compute". May
	// be nil.
	Profile *obs.Profile
	// Stream, when non-nil, receives each Outcome in submission order as
	// soon as it and every earlier job are terminal, while later jobs may
	// still run — the resumable-stream hook a service uses to follow a
	// sweep's JSONL records live. The callback runs on worker goroutines
	// under an internal lock (one call at a time, never concurrently), so
	// keep it fast; the outcomes it sees are exactly the slice Run
	// returns, one element at a time. May be nil.
	Stream func(Outcome)
}

// SeedFor derives the deterministic seed of job id under base: an
// FNV-1a hash of the ID folded into the base via a SplitMix64 round.
// It depends on nothing but its arguments, which is what makes sweep
// results independent of worker count and completion order.
func SeedFor(base uint64, id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	z := base + 0x9e3779b97f4a7c15 + h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes jobs across the bounded worker pool and returns one
// outcome per job in submission order. Job IDs must be unique within
// the run — they drive per-job seeds (SeedFor) and downstream cache
// keys — so a duplicate is rejected up front with an error and nil
// outcomes rather than silently running two jobs on one seed.
//
// The returned error is the failed outcome with the lowest Seq, a
// schedule-independent choice: under KeepGoing every job runs, so the
// failed set — and with it the reported error, and anything that
// prints it — is byte-identical for any Workers value, whatever the
// completion order was. Without KeepGoing the first observed failure
// still cancels the sweep, and the reported failure is again the
// lowest-Seq one among the jobs that actually failed before the
// cancellation landed. When no job failed, the context's error (if
// any) is returned. Outcomes are complete whenever the job list was
// accepted.
func Run(ctx context.Context, jobs []Job, opt Options) ([]Outcome, error) {
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if prev, ok := seen[j.ID]; ok {
			return nil, fmt.Errorf("sweep: duplicate job ID %q (positions %d and %d): IDs drive per-job seeds and downstream cache keys, so they must be unique within a run", j.ID, prev, i)
		}
		seen[j.ID] = i
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sweepStart := time.Now()
	opt.Progress.begin(jobs, workers, opt.Obs)
	defer opt.Progress.finish()

	var (
		started   = opt.Obs.Counter("sweep.jobs.started")
		completed = opt.Obs.Counter("sweep.jobs.completed")
		failed    = opt.Obs.Counter("sweep.jobs.failed")
		skipped   = opt.Obs.Counter("sweep.jobs.skipped")
		wallHist  = opt.Obs.Histogram("sweep.job.wall_ms")
	)
	opt.Obs.Gauge("sweep.workers").Set(int64(workers))

	outcomes := make([]Outcome, len(jobs))
	emit := newStreamEmitter(opt.Stream, outcomes)
	var (
		next     atomic.Int64
		failOnce sync.Once
		wg       sync.WaitGroup
	)
	// fail triggers the fail-fast cancellation; which failure Run
	// *reports* is decided after the pool drains, by Seq, so the error
	// never depends on completion order.
	fail := func() {
		failOnce.Do(func() {
			if !opt.KeepGoing {
				cancel()
			}
		})
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				job := jobs[i]
				out := &outcomes[i]
				out.ID, out.Seq = job.ID, i
				out.Seed = SeedFor(opt.Seed, job.ID)
				if err := ctx.Err(); err != nil {
					out.Status, out.Err = StatusSkipped, err
					skipped.Inc()
					opt.Progress.jobSkipped(i)
					emit.markDone(i)
					continue
				}
				p := Params{Quick: opt.Quick, Seed: out.Seed}
				var reg *obs.Registry
				if opt.Metrics {
					reg = obs.NewRegistry()
				}
				var sink obs.Sink
				if opt.Obs != nil {
					sink = opt.Obs.Sink
				}
				var prof *obs.Profile
				if opt.Profile != nil {
					prof = opt.Profile.Scope(job.ID)
				}
				if reg != nil || sink != nil || prof != nil {
					p.Obs = obs.New(reg, sink)
					p.Obs.Prof = prof
				}
				started.Inc()
				opt.Progress.jobRunning(i)
				begin := time.Now()
				out.Start = begin.Sub(sweepStart)
				val, err := runJob(ctx, job, p)
				out.Wall = time.Since(begin)
				wallHist.Observe(out.Wall.Milliseconds())
				if reg != nil {
					out.Metrics = reg.Snapshot()
					if opt.LiveMetrics && opt.Obs != nil {
						//lint:ignore floatfold the live registry is scrape-only: byte-compared output reads the per-job Metrics snapshots, and the completion-order fold here only feeds /metrics
						opt.Obs.Reg.Import(out.Metrics)
					}
				}
				if err != nil {
					out.Status, out.Err = StatusFailed, err
					failed.Inc()
					opt.Progress.jobFinished(i, StatusFailed, out.Wall)
					emit.markDone(i)
					fail()
					continue
				}
				out.Status, out.Value = StatusOK, val
				completed.Inc()
				opt.Progress.jobFinished(i, StatusOK, out.Wall)
				emit.markDone(i)
			}
		}()
	}
	wg.Wait()

	// Report the lowest-Seq failure: under KeepGoing every job ran, so
	// the failed set — and therefore the reported error — is identical
	// for any worker count. (The pre-fix engine reported the first
	// failure in completion order, which varied with scheduling.)
	for i := range outcomes {
		if outcomes[i].Status == StatusFailed {
			return outcomes, fmt.Errorf("sweep: job %s: %w", outcomes[i].ID, outcomes[i].Err)
		}
	}
	if err := ctx.Err(); err != nil {
		return outcomes, err
	}
	return outcomes, nil
}

// streamEmitter delivers outcomes to the Options.Stream hook in
// submission order: a worker marks its outcome terminal and the
// emitter flushes the contiguous terminal prefix. The mutex both
// serializes the callback and orders each worker's outcome write
// before any other worker emits it.
type streamEmitter struct {
	emit     func(Outcome)
	outcomes []Outcome

	mu    sync.Mutex
	ready []bool // guarded by mu
	next  int    // guarded by mu
}

// newStreamEmitter returns an emitter over the run's outcome slice, or
// nil when no hook is set (markDone no-ops on nil).
func newStreamEmitter(emit func(Outcome), outcomes []Outcome) *streamEmitter {
	if emit == nil {
		return nil
	}
	return &streamEmitter{emit: emit, outcomes: outcomes, ready: make([]bool, len(outcomes))}
}

// markDone records that outcome i is terminal and emits every not-yet-
// emitted outcome of the contiguous terminal prefix, in order.
func (e *streamEmitter) markDone(i int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ready[i] = true
	for e.next < len(e.ready) && e.ready[e.next] {
		e.emit(e.outcomes[e.next])
		e.next++
	}
}

// runJob invokes the job, translating a panic in the builder into an
// error so one bad experiment cannot take down a keep-going sweep.
func runJob(ctx context.Context, job Job, p Params) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: job %s panicked: %v", job.ID, r)
		}
	}()
	return job.Run(ctx, p)
}
