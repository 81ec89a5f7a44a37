package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/sweep"
)

// Job states. A job moves queued → running → done/failed/cancelled;
// cache hits are born done.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// ErrNotFound reports a job ID the scheduler never issued.
var ErrNotFound = errors.New("serve: no such job")

// ErrEvicted reports a job ID the scheduler issued and has since
// forgotten: its record was among the oldest finished ones beyond the
// keepFinished most recent.
var ErrEvicted = errors.New("serve: job evicted")

// keepFinished is how many finished job records the scheduler keeps.
// A job that reaches a terminal state joins a first-in-first-out list;
// beyond this count the oldest record leaves the table and its ID
// answers ErrEvicted. Queued and running jobs are never evicted.
const keepFinished = 1024

// ErrClosed reports a submission to a shut-down scheduler.
var ErrClosed = errors.New("serve: scheduler is shut down")

// Config tunes the scheduler. The zero value is usable: one running
// sweep per tenant, two sweeps globally, engine-default workers,
// caching on.
type Config struct {
	// Workers is the per-sweep worker pool default (0 = engine default,
	// GOMAXPROCS); a Spec.Workers override wins when set.
	Workers int
	// TenantQuota caps concurrently running sweeps per tenant (<= 0
	// means 1). Queued work beyond the quota waits, whatever its
	// priority, so one tenant cannot starve the rest.
	TenantQuota int
	// MaxSweeps caps concurrently running sweeps across all tenants
	// (<= 0 means 2).
	MaxSweeps int
	// NoCache disables the repeated-submission result cache.
	NoCache bool
	// Obs receives the scheduler's counters and gauges plus every
	// sweep's engine metrics; its registry is what /metrics serves. May
	// be nil.
	Obs *obs.Observer
	// Progress, when non-nil, receives one registered source per
	// running sweep plus the scheduler's own counts, for the service's
	// /debug/progress endpoint.
	Progress *obshttp.ProgressSet
}

// JobStatus is the JSON form of one submission's state.
type JobStatus struct {
	// ID is the scheduler-assigned job ID ("j000001", submission order).
	ID string `json:"id"`
	// Tenant and Priority echo the submission envelope.
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority,omitempty"`
	// Program is the resolved ID set in catalog order — the run order,
	// whatever order the submission spelled.
	Program []string `json:"program"`
	// State is queued, running, done, failed or cancelled.
	State string `json:"state"`
	// Cached reports that the result was served from the cache without
	// running anything.
	Cached bool `json:"cached,omitempty"`
	// Err is the failure cause for failed/cancelled jobs.
	Err string `json:"err,omitempty"`
	// Lines is the number of JSONL result lines available now; Total is
	// the number the finished stream will hold.
	Lines int `json:"lines"`
	Total int `json:"total"`
}

// SchedSnapshot is the scheduler's /debug/progress payload.
type SchedSnapshot struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// RunningByTenant maps tenant → currently running sweeps (JSON maps
	// encode in sorted key order, so the payload is deterministic).
	RunningByTenant map[string]int `json:"running_by_tenant,omitempty"`
}

// job is one submission's scheduler record. The immutable fields are
// set at submission; the mutable state below the marker is read and
// written only with the owning Scheduler's mu held (the stream has its
// own lock and is safe to touch from anywhere).
type job struct {
	id     string
	spec   Spec
	ids    []string // resolved program, catalog order
	key    string
	seq    int
	sjobs  []sweep.Job
	stream *resultStream

	// mutable under the owning Scheduler's mu
	state     string
	cached    bool
	errMsg    string
	cancelled bool               // cancellation requested while running
	cancel    context.CancelFunc // non-nil while running
	runCtx    context.Context    // non-nil while running
	progress  *sweep.Progress    // non-nil while running
}

// Scheduler is the fair multi-tenant queue in front of the sweep
// engine: submissions enter per-tenant queues, dispatch respects the
// global and per-tenant concurrency caps, and equal-priority work is
// served in submission order with ties broken toward the tenant
// running the least. Completed results are cached by (program hash,
// params, seed) — legitimate because the engine's determinism contract
// makes results schedule-independent, so a hit is byte-identical to a
// re-run under any quota or worker setting.
//
// Its state is bounded whatever its history: it holds the queued and
// running jobs, the keepFinished most recent finished ones, and a
// result cache of at most cacheBudget bytes.
type Scheduler struct {
	catalog Catalog
	cfg     Config
	pset    *obshttp.ProgressSet
	keep    int // finished records kept; keepFinished outside tests

	// metric handles, resolved once (all nil-safe via obs.Observer)
	cSubmitted, cDone, cFailed, cCancelled *obs.Counter
	cCacheHit, cCacheMiss, cCacheEvicted   *obs.Counter
	cEvicted                               *obs.Counter
	gQueued, gRunning, gCacheBytes         *obs.Gauge
	gCostHits, gCostMisses, gCostEntries   *obs.Gauge

	wg sync.WaitGroup // running runSweep goroutines

	mu            sync.Mutex
	closed        bool            // guarded by mu
	seq           int             // guarded by mu
	jobs          map[string]*job // guarded by mu
	pending       []*job          // guarded by mu
	finished      []*job          // guarded by mu
	running       int             // guarded by mu
	done          int             // guarded by mu
	failed        int             // guarded by mu
	cancelled     int             // guarded by mu
	tenantRunning map[string]int  // guarded by mu
	cache         *resultCache    // guarded by mu
}

// NewScheduler returns a scheduler over the catalog. It registers its
// own counts as the "scheduler" source of cfg.Progress when set.
func NewScheduler(catalog Catalog, cfg Config) *Scheduler {
	if cfg.TenantQuota <= 0 {
		cfg.TenantQuota = 1
	}
	if cfg.MaxSweeps <= 0 {
		cfg.MaxSweeps = 2
	}
	o := cfg.Obs
	s := &Scheduler{
		catalog: catalog,
		cfg:     cfg,
		pset:    cfg.Progress,

		cSubmitted: o.Counter("serve.jobs.submitted"),
		cDone:      o.Counter("serve.jobs.done"),
		cFailed:    o.Counter("serve.jobs.failed"),
		cCancelled: o.Counter("serve.jobs.cancelled"),
		cCacheHit:  o.Counter("serve.cache.hits"),
		cCacheMiss: o.Counter("serve.cache.misses"),
		cEvicted:   o.Counter("serve.jobs.evicted"),
		gQueued:    o.Gauge("serve.jobs.queued"),
		gRunning:   o.Gauge("serve.jobs.running"),

		cCacheEvicted: o.Counter("serve.cache.evictions"),
		gCacheBytes:   o.Gauge("serve.cache.bytes"),

		gCostHits:    o.Gauge("cost.compile.cache.hits"),
		gCostMisses:  o.Gauge("cost.compile.cache.misses"),
		gCostEntries: o.Gauge("cost.compile.cache.entries"),

		keep:          keepFinished,
		jobs:          make(map[string]*job),
		tenantRunning: make(map[string]int),
		cache:         newResultCache(cacheBudget),
	}
	if s.pset != nil {
		s.pset.Register("scheduler", func() any { return s.Snapshot() })
	}
	return s
}

// Submit validates and enqueues one submission, returning its status
// (already done when the cache had the result). The returned status is
// a consistent snapshot; poll Status for updates.
func (s *Scheduler) Submit(spec Spec) (JobStatus, error) {
	if err := spec.normalize(); err != nil {
		return JobStatus{}, err
	}
	sjobs, err := s.catalog.Resolve(spec.IDs)
	if err != nil {
		return JobStatus{}, err
	}
	ids := make([]string, len(sjobs))
	for i := range sjobs {
		ids[i] = sjobs[i].ID
	}
	key := cacheKey(ids, spec)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, ErrClosed
	}
	s.seq++
	j := &job{
		id:    jobID(s.seq),
		spec:  spec,
		ids:   ids,
		key:   key,
		seq:   s.seq,
		sjobs: sjobs,
		state: StateQueued,
	}
	s.jobs[j.id] = j
	s.cSubmitted.Inc()
	if !s.cfg.NoCache {
		if lines, hit := s.cache.get(key); hit {
			s.cCacheHit.Inc()
			j.state, j.cached = StateDone, true
			j.stream = finishedStream(lines)
			s.done++
			s.cDone.Inc()
			s.retireLocked(j)
			s.publishLocked()
			return s.statusLocked(j), nil
		}
		s.cCacheMiss.Inc()
	}
	j.stream = newResultStream()
	s.pending = append(s.pending, j)
	s.dispatchLocked()
	return s.statusLocked(j), nil
}

// jobID is the ID of the seq-th submission.
func jobID(seq int) string { return fmt.Sprintf("j%06d", seq) }

// lookupLocked returns job id's record. An ID the scheduler issued but
// no longer holds is ErrEvicted, any other unknown ID ErrNotFound.
// Callers hold s.mu.
func (s *Scheduler) lookupLocked(id string) (*job, error) {
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n >= 1 && n <= s.seq && id == jobID(n) {
		return nil, fmt.Errorf("%w: %q (the scheduler keeps the %d most recent finished jobs)", ErrEvicted, id, s.keep)
	}
	return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
}

// retireLocked records that j reached a terminal state and forgets the
// oldest finished records beyond s.keep. Each job is retired exactly
// once, at its terminal transition; callers hold s.mu.
func (s *Scheduler) retireLocked(j *job) {
	s.finished = append(s.finished, j)
	for len(s.finished) > s.keep {
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = nil
		s.finished = s.finished[1:]
		s.cEvicted.Inc()
	}
}

// Status returns the current state of job id.
func (s *Scheduler) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	return s.statusLocked(j), nil
}

// List returns the status of every job the scheduler holds (queued,
// running and the keepFinished most recent finished) in submission
// order.
func (s *Scheduler) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		held = append(held, j)
	}
	slices.SortFunc(held, func(a, b *job) int { return a.seq - b.seq })
	out := make([]JobStatus, len(held))
	for i, j := range held {
		out[i] = s.statusLocked(j)
	}
	return out
}

// Stream returns job id's result stream for followers. A follower
// keeps its stream to the end even if the job's record is evicted
// meanwhile.
func (s *Scheduler) Stream(id string) (*resultStream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	return j.stream, nil
}

// Cancel cancels job id: a queued job is dropped before it runs, a
// running job has its sweep context cancelled (remaining experiments
// skip; the job lands in state cancelled). A cancel that reaches a
// running job after its last experiment finished ok changes nothing:
// the job lands done and its run is cached. Terminal jobs are left
// untouched. Cancel is idempotent.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookupLocked(id)
	if err != nil {
		return JobStatus{}, err
	}
	s.cancelLocked(j)
	return s.statusLocked(j), nil
}

// cancelLocked applies a cancellation request to j; callers hold s.mu.
func (s *Scheduler) cancelLocked(j *job) {
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
		j.stream.finish()
		i := slices.Index(s.pending, j)
		s.pending = slices.Delete(s.pending, i, i+1)
		s.cancelled++
		s.cCancelled.Inc()
		s.retireLocked(j)
		s.publishLocked()
		s.dispatchLocked()
	case StateRunning:
		if !j.cancelled {
			j.cancelled = true
			j.cancel()
		}
	}
}

// Close stops the scheduler: queued jobs are cancelled, running sweeps
// have their contexts cancelled, further submissions fail with
// ErrClosed, and Close returns once every sweep goroutine has drained.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for len(s.pending) > 0 {
			s.cancelLocked(s.pending[0])
		}
		for _, j := range s.jobs {
			s.cancelLocked(j) // only running jobs are left to cancel
		}
		if s.pset != nil {
			s.pset.Unregister("scheduler")
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Snapshot returns the scheduler's live counts.
func (s *Scheduler) Snapshot() SchedSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SchedSnapshot{
		Queued:    len(s.pending),
		Running:   s.running,
		Done:      s.done,
		Failed:    s.failed,
		Cancelled: s.cancelled,
	}
	if len(s.tenantRunning) > 0 {
		snap.RunningByTenant = make(map[string]int, len(s.tenantRunning))
		for t, n := range s.tenantRunning {
			snap.RunningByTenant[t] = n
		}
	}
	return snap
}

// statusLocked builds j's JobStatus; callers hold s.mu.
func (s *Scheduler) statusLocked(j *job) JobStatus {
	return JobStatus{
		ID:       j.id,
		Tenant:   j.spec.Tenant,
		Priority: j.spec.Priority,
		Program:  j.ids,
		State:    j.state,
		Cached:   j.cached,
		Err:      j.errMsg,
		Lines:    j.stream.snapshotLen(),
		Total:    len(j.ids),
	}
}

// publishLocked mirrors the live counts into the gauges; callers hold
// s.mu.
func (s *Scheduler) publishLocked() {
	s.gQueued.Set(int64(len(s.pending)))
	s.gRunning.Set(int64(s.running))
	s.gCacheBytes.Set(s.cache.size)
	cs := cost.CompileCache().Stats()
	s.gCostHits.Set(cs.Hits)
	s.gCostMisses.Set(cs.Misses)
	s.gCostEntries.Set(cs.Entries)
}

// pickLocked returns the index in s.pending of the next job to
// dispatch, or -1 when the caps leave nothing eligible: highest
// Priority first, then the tenant with the fewest running sweeps, then
// submission order. Callers hold s.mu.
func (s *Scheduler) pickLocked() int {
	if s.running >= s.cfg.MaxSweeps {
		return -1
	}
	best := -1
	for i, j := range s.pending {
		if s.tenantRunning[j.spec.Tenant] >= s.cfg.TenantQuota {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := s.pending[best]
		switch {
		case j.spec.Priority > b.spec.Priority:
			best = i
		case j.spec.Priority == b.spec.Priority &&
			s.tenantRunning[j.spec.Tenant] < s.tenantRunning[b.spec.Tenant]:
			best = i
		}
	}
	return best
}

// dispatchLocked starts every job the caps allow. All scheduler-state
// writes happen before any sweep goroutine spawns; callers hold s.mu.
func (s *Scheduler) dispatchLocked() {
	if s.closed {
		return
	}
	var starts []*job
	for {
		i := s.pickLocked()
		if i < 0 {
			break
		}
		j := s.pending[i]
		s.pending = slices.Delete(s.pending, i, i+1)
		ctx, cancel := context.WithCancel(context.Background())
		j.state = StateRunning
		j.cancel = cancel
		j.progress = sweep.NewProgress()
		j.runCtx = ctx
		s.running++
		s.tenantRunning[j.spec.Tenant]++
		starts = append(starts, j)
	}
	if len(starts) == 0 {
		return
	}
	s.publishLocked()
	for _, j := range starts {
		if s.pset != nil {
			p := j.progress
			s.pset.Register("sweep:"+j.id, func() any { return p.Snapshot() })
		}
		s.wg.Add(1)
		go s.runSweep(j)
	}
}

// runSweep runs j's sweep to completion; one goroutine per running
// job.
func (s *Scheduler) runSweep(j *job) {
	defer s.wg.Done()
	workers := j.spec.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	outs, err := sweep.Run(j.runCtx, j.sjobs, sweep.Options{
		Workers:   workers,
		KeepGoing: true,
		Quick:     j.spec.Quick,
		Seed:      j.spec.Seed,
		Metrics:   j.spec.Metrics,
		Obs:       s.cfg.Obs,
		Progress:  j.progress,
		Stream: func(o sweep.Outcome) {
			j.stream.append(encodeLine(o))
		},
	})
	// The outcomes, not err, tell whether the run is whole: a cancel
	// that lands after the last experiment finished leaves every
	// outcome ok, yet Run may still report the cancelled context.
	whole := len(outs) == len(j.sjobs)
	for _, o := range outs {
		whole = whole && o.Status == sweep.StatusOK
	}
	s.finishJob(j, whole, err)
}

// encodeLine renders one outcome as its JSONL line, byte-identical to
// sweep.WriteJSONL's output for the same outcome. A value that fails
// to encode degrades to the partial record with the encoding error in
// its err field rather than losing the line.
func encodeLine(o sweep.Outcome) []byte {
	rec, err := sweep.RecordOf(o)
	if err != nil && rec.Err == "" {
		rec.Err = err.Error()
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		raw, _ = json.Marshal(sweep.Record{ID: o.ID, Seq: o.Seq, Status: string(o.Status), Err: err.Error()})
	}
	return append(raw, '\n')
}

// finishJob lands j's terminal state, feeds the cache, retires j, and
// dispatches whatever the freed slots allow. A whole run, every
// experiment ok, lands done even if a cancel arrived after it finished.
func (s *Scheduler) finishJob(j *job, whole bool, runErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel() // release the context's resources; idempotent
	s.running--
	s.tenantRunning[j.spec.Tenant]--
	if s.tenantRunning[j.spec.Tenant] == 0 {
		delete(s.tenantRunning, j.spec.Tenant)
	}
	switch {
	case j.cancelled && !whole:
		j.state = StateCancelled
		if runErr != nil {
			j.errMsg = runErr.Error()
		} else {
			j.errMsg = "cancelled"
		}
		s.cancelled++
		s.cCancelled.Inc()
	case runErr != nil && !whole:
		j.state = StateFailed
		j.errMsg = runErr.Error()
		s.failed++
		s.cFailed.Inc()
	default:
		j.state = StateDone
		if !s.cfg.NoCache {
			s.cCacheEvicted.Add(int64(s.cache.put(j.key, j.stream.all())))
		}
		s.done++
		s.cDone.Inc()
	}
	j.stream.finish()
	s.retireLocked(j)
	if s.pset != nil {
		s.pset.Unregister("sweep:" + j.id)
	}
	j.progress = nil
	s.publishLocked()
	s.dispatchLocked()
}
