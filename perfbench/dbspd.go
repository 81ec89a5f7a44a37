package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The dbspd workload: a closed loop of one caller that takes turns
// between two tenants, each with its own connection, against serve.New
// over the experiment catalog with cmd/dbspd's default options but one
// worker per sweep, on a loopback TCP listener. The caller posts a
// quick grid for one tenant, follows /results to the last byte, checks
// the result and only then submits for the other. So one submission is
// in flight and one goroutine computes at a time: on a shared 2-vCPU
// host, two concurrent callers, or one sweep on two workers, made the
// figures follow whichever vCPU was slowest at the moment (see
// README.md, Steadiness). About 70% of submissions repeat a (grid,
// seed) key the same tenant already completed, so the service answers
// them from its cache; the rest use a fresh seed and run cold. serve,
// sweep, obs and HTTP do all of a hit's work and wrap every cold run;
// the simulators appear only inside quick tables.

// grids partition the catalog minus its heaviest quick tables (E05,
// E10, E20) into five grids of about equal single-worker quick time,
// so one cold sweep takes tens of milliseconds whichever grid it is.
var grids = [][]string{
	{"E01", "E02", "E06"},
	{"E03", "E14", "E17"},
	{"E07", "E09"},
	{"E11", "E16"},
	{"E04", "E08", "E15", "E18", "E19"},
}

// gridIDs lists every experiment the grids use, sorted.
func gridIDs() []string {
	var ids []string
	for _, g := range grids {
		ids = append(ids, g...)
	}
	sort.Strings(ids)
	return ids
}

const (
	tenants = 2  // taking turns, one submission in flight
	hitPct  = 70 // share of submissions that repeat a completed key
)

// coldSeed is tenant c's n-th cold seed. Tenants draw from disjoint
// ranges, so no tenant's cold run is another tenant's cache hit.
func coldSeed(base uint64, c, n int) uint64 {
	return base&^0xffffffff | uint64(c)<<24 | uint64(n)
}

// dbspdPlan is everything the seed decides: per tenant, the order in
// which cold runs cycle through the grids and the seed of its hit/cold
// decisions.
type dbspdPlan struct {
	base   uint64
	order  [tenants][]int
	choice [tenants]uint64
}

func planDBSPD(seed uint64) dbspdPlan {
	g := workload.New(seed)
	p := dbspdPlan{base: uint64(g.Int63())}
	for c := 0; c < tenants; c++ {
		p.order[c] = workload.Permutation(uint64(g.Int63()), len(grids))
		p.choice[c] = uint64(g.Int63())
	}
	return p
}

// dbspdSetup holds the references and the running server.
type dbspdSetup struct {
	plan   dbspdPlan
	ids    [][]string        // each grid's IDs in catalog order
	ref    [tenants][][]byte // JSONL of each tenant's first cold run per grid
	svc    *serve.Service
	srv    *http.Server
	served chan error
	url    string
}

func (s *dbspdSetup) close() {
	s.svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a failed drain leaves only idle loopback conns
	<-s.served
}

// buildDBSPD computes each tenant's first cold run of every grid with
// sweep.Run + sweep.WriteJSONL, then starts the service.
func buildDBSPD(seed uint64) (*dbspdSetup, error) {
	catalog, err := serve.NewCatalog(experiments.Jobs())
	if err != nil {
		return nil, err
	}
	s := &dbspdSetup{plan: planDBSPD(seed)}
	jobs := make([][]sweep.Job, len(grids))
	for g, ids := range grids {
		if jobs[g], err = catalog.Resolve(ids); err != nil {
			return nil, err
		}
		resolved := make([]string, len(jobs[g]))
		for i, j := range jobs[g] {
			resolved[i] = j.ID
		}
		s.ids = append(s.ids, resolved)
	}
	for c := 0; c < tenants; c++ {
		for k, g := range s.plan.order[c] {
			outs, err := sweep.Run(context.Background(), jobs[g], sweep.Options{
				KeepGoing: true, Quick: true, Seed: coldSeed(s.plan.base, c, k)})
			if err != nil {
				return nil, fmt.Errorf("reference sweep of grid %d: %w", g, err)
			}
			var buf bytes.Buffer
			if err := sweep.WriteJSONL(&buf, outs); err != nil {
				return nil, err
			}
			s.ref[c] = append(s.ref[c], buf.Bytes())
		}
	}

	s.svc = serve.New(catalog, serve.Options{Workers: 1, TenantQuota: 1, MaxSweeps: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.svc.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("service did not come up: %w", err)
	}
	return s, nil
}

// subKey is one (grid, seed) submission key.
type subKey struct {
	grid int
	seed uint64
}

// tenantRun is one tenant's measurements, merged after the loop.
type tenantRun struct {
	hit, cold          series // latency, untraced submissions
	tHit, tCold        series // latency, traced submissions
	submit, replay     series // traced: POST round trip, GET of a hit
	dispatch, overhead series // traced cold runs
	makespan           series // traced cold runs
	expWall            map[string]series
	hits, colds        int
	checks
}

// heldBytes is the memory r's samples occupy.
func (r *tenantRun) heldBytes() uint64 {
	n := 0
	for _, s := range []series{r.hit, r.cold, r.tHit, r.tCold, r.submit, r.replay, r.dispatch, r.overhead, r.makespan} {
		n += cap(s)
	}
	for _, s := range r.expWall {
		n += cap(s)
	}
	return uint64(n) * uint64(unsafe.Sizeof(float64(0)))
}

// record is the part of a sweep JSONL record the checks read.
type record struct {
	ID      string  `json:"id"`
	Status  string  `json:"status"`
	StartMS float64 `json:"start_ms"`
	WallMS  float64 `json:"wall_ms"`
}

func runDBSPD(cfg config, out *outcome) error {
	st, err := timeSetup(cfg, out, func() (*dbspdSetup, error) { return buildDBSPD(cfg.seed) })
	if err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	prof, err := startProfile(cfg)
	if err != nil {
		st.close()
		return err
	}
	heap0 := liveHeap()
	cache0 := cost.CompileCache().Stats()
	md := startMem()
	start := time.Now()
	deadline := cfg.deadline(start)
	ts := make([]*tenant, tenants)
	for c := range ts {
		ts[c] = st.newTenant(c)
	}
	for n := 0; time.Now().Before(deadline); n++ {
		ts[n%tenants].submit(n/tenants, cfg.trace, tr)
	}
	elapsed := time.Since(start)
	for _, t := range ts {
		// What a tenant keeps between submissions is the benchmark's,
		// not the service's: drop it before the live heap is read.
		t.hc.CloseIdleConnections()
		t.digests, t.done = nil, nil
	}
	out.profile = prof.stop()
	allocBytes, gcs := md.stop()
	cache1 := cost.CompileCache().Stats()
	heap1 := liveHeap()
	scraped, scrapeErr := scrapeMetrics(st.url)
	st.close()

	var all tenantRun
	all.expWall = map[string]series{}
	for _, t := range ts {
		r := &t.tenantRun
		all.hit = append(all.hit, r.hit...)
		all.cold = append(all.cold, r.cold...)
		all.tHit = append(all.tHit, r.tHit...)
		all.tCold = append(all.tCold, r.tCold...)
		all.submit = append(all.submit, r.submit...)
		all.replay = append(all.replay, r.replay...)
		all.dispatch = append(all.dispatch, r.dispatch...)
		all.overhead = append(all.overhead, r.overhead...)
		all.makespan = append(all.makespan, r.makespan...)
		for id, w := range r.expWall {
			all.expWall[id] = append(all.expWall[id], w...)
		}
		all.hits += r.hits
		all.colds += r.colds
		out.merge(r.checks)
	}
	subs := all.hits + all.colds
	if scrapeErr != nil {
		out.problem("scrape /metrics: %v", scrapeErr)
	} else {
		if got := int(scraped["serve_cache_hits"]); got != all.hits {
			out.problem("/metrics serve_cache_hits = %d, the tenants saw %d hits", got, all.hits)
		}
		if f := scraped["serve_jobs_failed"]; f != 0 {
			out.problem("/metrics serve_jobs_failed = %v", f)
		}
	}

	// The live heap at the end, less what the benchmark's own samples,
	// spans and profile hold, is the service's.
	held := tr.heldBytes() + uint64(cap(out.profile))
	for _, t := range ts {
		held += t.heldBytes()
	}
	heapSvc := float64(heap1) - float64(held)
	jobsPerS := float64(subs) / elapsed.Seconds()
	retained := (heapSvc - float64(heap0)) / 1024 / float64(subs)
	out.e2e["work_per_s"] = jobsPerS
	out.e2e["light_ms"] = median(all.hit)
	out.e2e["heavy_ms"] = median(all.cold)
	out.rows = append(out.rows,
		row{Name: "jobs_per_s", Value: jobsPerS, Unit: "1/s", N: subs},
		tail("hit_p50_ms", all.hit, 50),
		tail("hit_p99_ms", all.hit, 99),
		tail("cold_p50_ms", all.cold, 50),
		tail("cold_p90_ms", all.cold, 90),
		row{Name: "retained_kb_per_job", Value: retained, Unit: "kB", N: subs},
		row{Name: "hit_share", Value: float64(all.hits) / float64(subs), Unit: "ratio", N: subs},
		row{Name: "dbspd.hits", Value: float64(all.hits), Unit: "count"},
		row{Name: "dbspd.cold", Value: float64(all.colds), Unit: "count"},
		row{Name: "serve_cache_hits", Value: scraped["serve_cache_hits"], Unit: "count"},
	)
	out.ledger["dbspd.reference_bits"] = fmt.Sprintf("%016x", st.referenceDigest())

	if cfg.trace {
		out.spans = tr.snapshot()
		out.setLayer("trace.overhead_pct", 100*(median(all.tHit)/median(all.hit)-1), len(all.tHit))
		out.setLayer("jobs_per_s", jobsPerS, subs)
		for _, r := range []row{
			tail("hit_p50_ms", all.tHit, 50), tail("hit_p99_ms", all.tHit, 99),
			tail("cold_p50_ms", all.tCold, 50), tail("cold_p90_ms", all.tCold, 90),
		} {
			out.layer[r.Name] = r
		}
		out.setLayer("retained_kb_per_job", retained, subs)
		out.setLayer("serve.submit_ms", median(all.submit), len(all.submit))
		out.setLayer("serve.replay_ms", median(all.replay), len(all.replay))
		out.setLayer("serve.dispatch_ms", median(all.dispatch), len(all.dispatch))
		out.setLayer("serve.overhead_ms", median(all.overhead), len(all.overhead))
		out.setLayer("sweep.makespan_ms", median(all.makespan), len(all.makespan))
		for id, w := range all.expWall {
			out.setLayer("experiments.wall_ms."+id, median(w), len(w))
		}
		out.setLayer("hit_share", float64(all.hits)/float64(subs), subs)
		out.setLayer("dbspd.hits", float64(all.hits), 0)
		out.setLayer("dbspd.cold", float64(all.colds), 0)
		for _, name := range []string{"serve.jobs.submitted", "serve.jobs.done", "serve.jobs.failed",
			"serve.cache.hits", "serve.cache.misses"} {
			out.setLayer(name, scraped[strings.ReplaceAll(name, ".", "_")], 0)
		}
		out.setLayer("heap_live_mb", heapSvc/(1<<20), 0)
		out.setLayer("alloc_kb_per_call", float64(allocBytes)/1024/float64(subs), subs)
		out.setLayer("gc_cycles_per_call", float64(gcs)/float64(subs), subs)
		setCacheLayer(out, cache0, cache1)
	}
	return nil
}

// tail is a percentile row, marked when fewer than minBeyond samples
// lie beyond it.
func tail(name string, xs series, p float64) row {
	return row{Name: name, Value: percentile(xs, p), Unit: "ms", N: len(xs), Few: !tailOK(len(xs), p)}
}

// referenceDigest folds the masked reference streams: it changes only
// when a grid's result bytes do.
func (s *dbspdSetup) referenceDigest() uint64 {
	h := fnv.New64a()
	for c := range s.ref {
		for _, ref := range s.ref[c] {
			for _, line := range bytes.Split(bytes.TrimSuffix(ref, []byte("\n")), []byte("\n")) {
				m, err := maskRecord(line)
				if err != nil {
					return 0
				}
				h.Write(append(m, '\n'))
			}
		}
	}
	return h.Sum64()
}

// tenant is one tenant's side of the load: its connection, its
// hit/cold choices, the keys it completed and its measurements.
type tenant struct {
	s       *dbspdSetup
	c       int
	name    string
	hc      *http.Client
	rng     *workload.Gen
	digests map[subKey]uint64 // digest of each completed key's cold bytes
	done    []subKey
	nCold   int
	tenantRun
}

func (s *dbspdSetup) newTenant(c int) *tenant {
	return &tenant{
		s: s, c: c, name: fmt.Sprintf("tenant-%d", c),
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   time.Minute,
		},
		rng:       workload.New(s.plan.choice[c]),
		digests:   map[subKey]uint64{},
		tenantRun: tenantRun{expWall: map[string]series{}},
	}
}

// submit makes the tenant's n-th submission, follows its results and
// checks them. In a traced run every other submission is traced.
func (t *tenant) submit(n int, trace bool, tr *tracer) {
	s, c, r := t.s, t.c, &t.tenantRun
	var pt *tracer
	if trace && n%2 == 0 {
		pt = tr
	}
	wantHit := len(t.done) > 0 && t.rng.Intn(100) < hitPct
	var key subKey
	if wantHit {
		key = t.done[t.rng.Intn(len(t.done))]
	} else {
		key = subKey{grid: s.plan.order[c][t.nCold%len(grids)], seed: coldSeed(s.plan.base, c, t.nCold)}
	}
	req := int64(c)<<32 | int64(n)
	root := pt.begin("dbspd.submission", 0, req)
	t0 := time.Now()
	sp := pt.begin("serve.submit", root, req)
	status, err := s.post(t.hc, serve.Spec{Tenant: t.name, IDs: grids[key.grid], Quick: true, Seed: key.seed})
	posted := time.Since(t0)
	pt.end(sp)
	var body []byte
	var first time.Duration
	if err == nil {
		sp = pt.begin("serve.results", root, req)
		body, first, err = s.follow(t.hc, status.ID, t0)
		pt.end(sp)
	}
	lat := time.Since(t0)
	chk := pt.begin("bench.check", root, req)
	recs, problem := s.checkResult(key, status, body, err, wantHit)
	if problem == "" && wantHit && digestBytes(body) != t.digests[key] {
		problem = "cache hit differs from the key's cold bytes"
	}
	if problem == "" && !wantHit && t.nCold < len(grids) {
		diff, err := maskedEqual(body, s.ref[c][t.nCold])
		switch {
		case err != nil:
			problem = err.Error()
		case diff != "":
			problem = "first cold run differs from sweep.Run: " + diff
		}
	}
	pt.end(chk)
	pt.end(root)
	r.check(problem == "", "tenant %d submission %d (grid %d seed %d): %s", c, n, key.grid, key.seed, problem)
	if wantHit {
		r.hits++
		if pt != nil {
			r.tHit.add(lat)
			r.replay.add(lat - posted)
		} else {
			r.hit.add(lat)
		}
	} else {
		r.colds++
		t.nCold++
		if problem == "" {
			t.digests[key] = digestBytes(body)
			t.done = append(t.done, key)
		}
		if pt != nil {
			r.tCold.add(lat)
			if len(recs) > 0 {
				makespan := 0.0
				for _, rec := range recs {
					makespan = max(makespan, rec.StartMS+rec.WallMS)
					w := r.expWall[rec.ID]
					r.expWall[rec.ID] = append(w, rec.WallMS)
				}
				r.makespan = append(r.makespan, makespan)
				r.overhead = append(r.overhead, ms(lat)-makespan)
				r.dispatch = append(r.dispatch, ms(first)-(recs[0].StartMS+recs[0].WallMS))
			}
		} else {
			r.cold.add(lat)
		}
	}
	if pt != nil {
		r.submit.add(posted)
	}
}

// post submits spec and decodes the returned job status.
func (s *dbspdSetup) post(hc *http.Client, spec serve.Spec) (serve.JobStatus, error) {
	var st serve.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := hc.Post(s.url+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("POST: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("POST: decode status: %w", err)
	}
	return st, nil
}

// follow reads a job's result stream to the last byte, noting when the
// first line arrived (measured from t0).
func (s *dbspdSetup) follow(hc *http.Client, id string, t0 time.Time) ([]byte, time.Duration, error) {
	resp, err := hc.Get(s.url + "/api/v1/jobs/" + id + "/results")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET results: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	var body []byte
	var first time.Duration
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && len(body) == 0 {
			first = time.Since(t0) //lint:ignore detflow first-line arrival is a benchmark measurement (serve.dispatch_ms), returned beside the stream but never part of it
		}
		body = append(body, line...)
		if errors.Is(err, io.EOF) {
			return body, first, nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
}

// checkResult checks one submission's status and stream: every record
// ok and in catalog order, and the cache behaving as the key implies.
func (s *dbspdSetup) checkResult(key subKey, st serve.JobStatus, body []byte, err error, wantHit bool) ([]record, string) {
	if err != nil {
		return nil, err.Error()
	}
	if st.Cached != wantHit {
		return nil, fmt.Sprintf("cached = %t, want %t", st.Cached, wantHit)
	}
	want := s.ids[key.grid]
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(body) == 0 || len(lines) != len(want) {
		return nil, fmt.Sprintf("%d records, want %d", len(lines), len(want))
	}
	recs := make([]record, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &recs[i]); err != nil {
			return nil, fmt.Sprintf("record %d: %v", i+1, err)
		}
		if recs[i].ID != want[i] || recs[i].Status != "ok" {
			return nil, fmt.Sprintf("record %d is %s/%s, want %s/ok", i+1, recs[i].ID, recs[i].Status, want[i])
		}
	}
	return recs, ""
}

// scrapeMetrics reads the service's Prometheus exposition into a map
// of metric name to value.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			vals[name] = f
		}
	}
	return vals, sc.Err()
}
