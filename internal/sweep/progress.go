package sweep

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// JobProgress is the live state of one job inside a sweep, as exposed
// on /debug/progress. StartMS/WallMS/UpdatedMS are offsets and
// durations in milliseconds; UpdatedMS is the job's last state
// transition and doubles as the per-job heartbeat a distributed sweep
// coordinator would watch for stalls.
type JobProgress struct {
	ID        string  `json:"id"`
	Seq       int     `json:"seq"`
	Status    string  `json:"status"`
	StartMS   float64 `json:"start_ms,omitempty"`
	WallMS    float64 `json:"wall_ms,omitempty"`
	UpdatedMS float64 `json:"updated_ms,omitempty"`
}

// ProgressSnapshot is one consistent view of a sweep's live state.
type ProgressSnapshot struct {
	// Total is the number of submitted jobs; the remaining count fields
	// partition it.
	Total     int `json:"total"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Skipped   int `json:"skipped"`
	// Workers is the size of the worker pool.
	Workers int `json:"workers"`
	// ElapsedMS is wall-clock time since the sweep began.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ETAMS estimates the remaining wall-clock time: the median job
	// wall time so far times the unfinished-job count, divided by the
	// worker count. Zero until the first job finishes.
	ETAMS float64 `json:"eta_ms"`
	// Done reports that Run has returned.
	Done bool          `json:"done"`
	Jobs []JobProgress `json:"jobs"`
}

// Progress tracks per-job state transitions (queued → running →
// ok/failed/skipped) of a sweep run. Hand one to Options.Progress and
// poll Snapshot — typically via obshttp's /debug/progress endpoint —
// while Run is in flight. All methods are safe for concurrent use and
// nil receivers no-op, so the engine calls the hooks unconditionally.
//
// Progress never feeds back into job execution: it observes wall-clock
// state only, so enabling it cannot perturb the byte-identical sweep
// results.
type Progress struct {
	mu      sync.Mutex
	begun   time.Time     // guarded by mu
	jobs    []JobProgress // guarded by mu
	workers int           // guarded by mu
	done    bool          // guarded by mu

	queued, running, completed, failed, skipped int // guarded by mu

	// wall collects finished-job wall times for the ETA estimate,
	// separate from any engine registry so Progress works standalone.
	// guarded by mu
	wall obs.Histogram

	// o receives the live sweep.jobs.running/queued and sweep.eta_ms
	// gauges (the engine's Options.Obs observer; may be nil).
	// guarded by mu
	o *obs.Observer
}

// NewProgress returns an empty tracker, ready to pass as
// Options.Progress.
func NewProgress() *Progress { return &Progress{} }

// nowLocked returns the tracker-relative wall offset in milliseconds;
// callers hold p.mu (it reads p.begun).
func (p *Progress) nowLocked() float64 {
	return float64(time.Since(p.begun)) / float64(time.Millisecond)
}

// begin initialises the tracker for a run of the given jobs.
func (p *Progress) begin(jobs []Job, workers int, o *obs.Observer) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.begun = time.Now() //lint:ignore detflow progress offsets feed live gauges and /debug/progress only, never the byte-compared sweep records
	p.jobs = make([]JobProgress, len(jobs))
	for i, j := range jobs {
		p.jobs[i] = JobProgress{ID: j.ID, Seq: i, Status: "queued"}
	}
	p.workers = workers
	p.queued, p.running, p.completed, p.failed, p.skipped = len(jobs), 0, 0, 0, 0
	p.done = false
	p.o = o
	p.publishLocked()
}

// jobRunning marks job seq as claimed by a worker.
func (p *Progress) jobRunning(seq int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	j := &p.jobs[seq]
	now := p.nowLocked()
	j.Status, j.StartMS, j.UpdatedMS = "running", now, now
	p.queued--
	p.running++
	p.publishLocked()
}

// jobSkipped marks job seq as skipped (sweep cancelled before it ran).
func (p *Progress) jobSkipped(seq int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	j := &p.jobs[seq]
	j.Status, j.UpdatedMS = string(StatusSkipped), p.nowLocked()
	p.queued--
	p.skipped++
	p.publishLocked()
}

// jobFinished records job seq's terminal status and wall time.
func (p *Progress) jobFinished(seq int, status Status, wall time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	j := &p.jobs[seq]
	j.Status = string(status)
	j.WallMS = float64(wall) / float64(time.Millisecond)
	j.UpdatedMS = p.nowLocked()
	p.running--
	if status == StatusFailed {
		p.failed++
	} else {
		p.completed++
	}
	p.wall.Observe(wall.Milliseconds())
	p.publishLocked()
}

// finish marks the run complete.
func (p *Progress) finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done = true
	p.publishLocked()
}

// etaLocked estimates remaining wall-clock milliseconds from the
// median finished-job wall time; callers hold p.mu.
func (p *Progress) etaLocked() float64 {
	if p.wall.Count() == 0 || p.workers <= 0 {
		return 0
	}
	remaining := p.queued + p.running
	return p.wall.Quantile(0.5) * float64(remaining) / float64(p.workers)
}

// publishLocked mirrors the live counts into the engine observer's
// gauges; callers hold p.mu.
func (p *Progress) publishLocked() {
	if p.o == nil {
		return
	}
	p.o.Gauge("sweep.jobs.running").Set(int64(p.running))
	p.o.Gauge("sweep.jobs.queued").Set(int64(p.queued))
	p.o.Gauge("sweep.eta_ms").Set(int64(p.etaLocked()))
}

// Snapshot returns one consistent view of the sweep's live state (the
// zero ProgressSnapshot on a nil receiver).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Total:     len(p.jobs),
		Queued:    p.queued,
		Running:   p.running,
		Completed: p.completed,
		Failed:    p.failed,
		Skipped:   p.skipped,
		Workers:   p.workers,
		ETAMS:     p.etaLocked(),
		Done:      p.done,
		Jobs:      append([]JobProgress(nil), p.jobs...),
	}
	if !p.begun.IsZero() {
		s.ElapsedMS = p.nowLocked()
	}
	return s
}
