// Package serve is the simulation service behind cmd/dbspd: a
// long-running daemon that accepts program + parameter submissions
// over HTTP/JSON, schedules them fairly across tenants on the sweep
// engine, streams resumable JSONL results, and caches repeated work.
//
// The service leans entirely on the engine's determinism contract:
// because a sweep's output is byte-identical for any worker count and
// any completion order, the service can reorder queued work, vary
// per-sweep parallelism under load, and serve repeated submissions
// from cache — all without changing a single output byte. Submitting a
// program to dbspd yields exactly the bytes `cmd/experiments -jsonl`
// writes for the same selection, seed and flags (modulo the documented
// run-varying start_ms/wall_ms fields).
//
// # API
//
//	POST   /api/v1/jobs                   submit a Spec, returns JobStatus
//	GET    /api/v1/jobs                   list the retained jobs (queued,
//	                                      running, the 1,024 most recent
//	                                      finished; submission order)
//	GET    /api/v1/jobs/{job}             one job's status
//	GET    /api/v1/jobs/{job}/results     follow the JSONL result stream
//	                                      (?offset=N resumes after line N)
//	DELETE /api/v1/jobs/{job}             cancel a queued or running job
//
// plus the standard observability surface mounted from
// internal/obs/obshttp: /metrics, /healthz, /debug/progress (all
// running sweeps plus the scheduler, via ProgressSet),
// /debug/costprofile and /debug/pprof.
//
// The daemon's memory does not grow with its history. Beyond the 1,024
// most recent finished jobs the oldest record is evicted, and its ID
// answers 410 Gone on the three {job} endpoints (an ID never issued
// answers 404); a reader already following an evicted job's results
// reads them to the end. The result cache holds at most 64 MiB of
// result lines and evicts the least recently used entry beyond that;
// an evicted key simply runs again, to the same bytes.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/obs/obshttp"
)

// Options configures a Service; the zero value works (see Config for
// the scheduler defaults).
type Options struct {
	// Workers, TenantQuota, MaxSweeps and NoCache are the scheduler
	// settings; see Config.
	Workers     int
	TenantQuota int
	MaxSweeps   int
	NoCache     bool
	// Registry backs /metrics and the scheduler's counters; a fresh one
	// is created when nil.
	Registry *obs.Registry
}

// Service wires a Scheduler to its HTTP surface.
type Service struct {
	sched *Scheduler
	reg   *obs.Registry
	pset  *obshttp.ProgressSet
	mux   *http.ServeMux
}

// New returns a Service over the catalog.
func New(catalog Catalog, o Options) *Service {
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	pset := obshttp.NewProgressSet()
	s := &Service{
		reg:  reg,
		pset: pset,
		sched: NewScheduler(catalog, Config{
			Workers:     o.Workers,
			TenantQuota: o.TenantQuota,
			MaxSweeps:   o.MaxSweeps,
			NoCache:     o.NoCache,
			Obs:         obs.New(reg, nil),
			Progress:    pset,
		}),
	}
	mux := http.NewServeMux()
	mux.Handle("/", obshttp.Handler(obshttp.Options{Registry: reg, Progress: pset.Snapshot}))
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{job}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{job}/results", s.handleResults)
	mux.HandleFunc("DELETE /api/v1/jobs/{job}", s.handleCancel)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler (API + observability).
func (s *Service) Handler() http.Handler { return s.mux }

// Scheduler exposes the underlying scheduler (tests, CLI shutdown).
func (s *Service) Scheduler() *Scheduler { return s.sched }

// Close shuts the scheduler down: queued jobs cancel, running sweeps
// stop, and Close returns once they have drained.
func (s *Service) Close() { s.sched.Close() }

// maxSpecBytes bounds a submission body; a Spec is a few short strings.
const maxSpecBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad submission: %v", err), http.StatusBadRequest)
		return
	}
	st, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Status(r.PathValue("job"))
	if err != nil {
		lookupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.sched.Cancel(r.PathValue("job"))
	if err != nil {
		lookupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// lookupError answers a failed job lookup: 410 Gone for an evicted
// job, 404 for an ID the scheduler never issued.
func lookupError(w http.ResponseWriter, err error) {
	code := http.StatusNotFound
	if errors.Is(err, ErrEvicted) {
		code = http.StatusGone
	}
	http.Error(w, err.Error(), code)
}

// handleResults follows a job's JSONL stream: lines already present
// are sent immediately, later lines as their jobs finish, and the
// response ends when the sweep does. ?offset=N skips the first N
// lines, so a client that read N lines before disconnecting resumes
// byte-exactly where it left off.
func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	stream, err := s.sched.Stream(r.PathValue("job"))
	if err != nil {
		lookupError(w, err)
		return
	}
	offset := 0
	if q := r.URL.Query().Get("offset"); q != "" {
		offset, err = strconv.Atoi(q)
		if err != nil || offset < 0 {
			http.Error(w, fmt.Sprintf("bad offset %q", q), http.StatusBadRequest)
			return
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	ctx := r.Context()
	for {
		lines, fin := stream.wait(ctx, offset)
		if ctx.Err() != nil {
			return
		}
		for _, ln := range lines {
			if _, err := w.Write(ln); err != nil {
				return
			}
		}
		offset += len(lines)
		if fl != nil {
			fl.Flush()
		}
		if fin {
			return
		}
	}
}

// writeJSON encodes v with a status code; API responses are always
// JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
