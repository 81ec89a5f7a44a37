package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// newTestServer starts a Service over catalog on an httptest listener.
func newTestServer(t *testing.T, catalog Catalog, o Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(catalog, o)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// submit POSTs spec and decodes the JobStatus reply.
func submit(t *testing.T, base string, spec Spec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// readResults streams a job's full JSONL output from offset.
func readResults(t *testing.T, base, id string, offset int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/results?offset=%d", base, id, offset))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("results: %s: %s", resp.Status, raw)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// maskJSONL zeroes the documented run-varying fields (start_ms,
// wall_ms) of every record, leaving all other bytes intact — the same
// normalization the golden tests apply.
func maskJSONL(t *testing.T, raw []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec sweep.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad record %q: %v", sc.Text(), err)
		}
		rec.StartMS, rec.WallMS = 0, 0
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestServiceMatchesEngineBytes is the service-level determinism gate:
// for three different (quota, workers) settings the daemon's streamed
// JSONL must equal a direct engine run byte for byte, once the
// run-varying start_ms/wall_ms fields are masked — the same contract
// scripts/dbspd_smoke.sh checks against the real cmd/experiments
// binary.
func TestServiceMatchesEngineBytes(t *testing.T) {
	catalog := calcCatalog(t, 6)
	spec := Spec{IDs: []string{"T05", "T01", "T03"}, Seed: 42, Metrics: true}
	jobs, err := catalog.Resolve(spec.IDs)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := sweep.Run(context.Background(), jobs, sweep.Options{
		KeepGoing: true, Seed: spec.Seed, Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := sweep.WriteJSONL(&direct, outcomes); err != nil {
		t.Fatal(err)
	}
	want := maskJSONL(t, direct.Bytes())

	settings := []Options{
		{TenantQuota: 1, MaxSweeps: 1, Workers: 1},
		{TenantQuota: 2, MaxSweeps: 2, Workers: 4},
		{TenantQuota: 4, MaxSweeps: 4, Workers: 16},
	}
	for _, o := range settings {
		name := fmt.Sprintf("quota%d_workers%d", o.TenantQuota, o.Workers)
		t.Run(name, func(t *testing.T) {
			_, ts := newTestServer(t, catalog, o)
			st := submit(t, ts.URL, spec)
			got := maskJSONL(t, readResults(t, ts.URL, st.ID, 0))
			if !bytes.Equal(got, want) {
				t.Errorf("service bytes differ from engine bytes\nservice:\n%s\nengine:\n%s", got, want)
			}
			// Resubmit: a cache hit whose stream is byte-identical to the
			// first response even unmasked.
			first := readResults(t, ts.URL, st.ID, 0)
			st2 := submit(t, ts.URL, spec)
			if !st2.Cached {
				t.Fatalf("resubmission not served from cache: %+v", st2)
			}
			if again := readResults(t, ts.URL, st2.ID, 0); !bytes.Equal(again, first) {
				t.Error("cached stream differs from original run's bytes")
			}
		})
	}

	// A zero cache budget evicts every run as it is stored: each
	// resubmission misses, runs again and writes the same bytes.
	t.Run("zero_cache_budget", func(t *testing.T) {
		svc := New(catalog, Options{Workers: 2})
		svc.Scheduler().cache.budget = 0
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { ts.Close(); svc.Close() })
		for i := 0; i < 3; i++ {
			st := submit(t, ts.URL, spec)
			if st.Cached {
				t.Fatalf("submission %d served from a zero-budget cache", i)
			}
			if got := maskJSONL(t, readResults(t, ts.URL, st.ID, 0)); !bytes.Equal(got, want) {
				t.Errorf("submission %d: service bytes differ from engine bytes\nservice:\n%s\nengine:\n%s", i, got, want)
			}
		}
	})
}

// TestServiceResumableStream pins the ?offset contract: a reader that
// stops after N lines resumes at offset N and the concatenation equals
// an uninterrupted read, byte for byte, even while the sweep is still
// running.
func TestServiceResumableStream(t *testing.T) {
	gateCat, gate := gateCatalog(t)
	fastJobs := make([]sweep.Job, 0, 4)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("F%d", i)
		fastJobs = append(fastJobs, sweep.Job{ID: id, Run: func(ctx context.Context, p sweep.Params) (any, error) {
			return p.Seed, nil
		}})
	}
	g, err := gateCat.Resolve([]string{"G"})
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := NewCatalog(append(fastJobs, g...))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, catalog, Options{Workers: 4})

	// Program: three fast jobs then the gated one. The fast prefix
	// streams while G blocks.
	st := submit(t, ts.URL, Spec{IDs: []string{"F0", "F1", "F2", "G"}, Seed: 9})

	// First reader: take the three live lines, then drop the connection.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/v1/jobs/"+st.ID+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var prefix bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
		prefix.Write(sc.Bytes())
		prefix.WriteByte('\n')
	}
	cancel()
	resp.Body.Close()
	if got := strings.Count(prefix.String(), "\n"); got != 3 {
		t.Fatalf("live prefix has %d lines, want 3", got)
	}

	// The job is still running: its status shows the partial stream.
	var mid JobStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r2.Body).Decode(&mid); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if mid.Lines == 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if mid.State != StateRunning || mid.Lines != 3 || mid.Total != 4 {
		t.Errorf("mid-sweep status = %s %d/%d, want running 3/4", mid.State, mid.Lines, mid.Total)
	}

	close(gate)
	tail := readResults(t, ts.URL, st.ID, 3)
	full := readResults(t, ts.URL, st.ID, 0)
	if got := append(prefix.Bytes(), tail...); !bytes.Equal(got, full) {
		t.Errorf("resumed read differs from uninterrupted read:\nresumed:\n%s\nfull:\n%s", got, full)
	}
}

func TestServiceHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, calcCatalog(t, 2), Options{})
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
	}{
		{"bad json", "POST", "/api/v1/jobs", "{", http.StatusBadRequest},
		{"unknown field", "POST", "/api/v1/jobs", `{"nope":1}`, http.StatusBadRequest},
		{"no ids", "POST", "/api/v1/jobs", `{}`, http.StatusBadRequest},
		{"unknown program id", "POST", "/api/v1/jobs", `{"ids":["NOPE"]}`, http.StatusBadRequest},
		{"unknown job", "GET", "/api/v1/jobs/j999999", "", http.StatusNotFound},
		{"unknown job results", "GET", "/api/v1/jobs/j999999/results", "", http.StatusNotFound},
		{"unknown job cancel", "DELETE", "/api/v1/jobs/j999999", "", http.StatusNotFound},
		{"bad offset", "GET", "/api/v1/jobs/j999999/results?offset=x", "", http.StatusNotFound}, // unknown job wins
		// An unmatched method falls through to the obshttp catch-all,
		// which has no such path: 404, not 405.
		{"wrong method", "PUT", "/api/v1/jobs", "", http.StatusNotFound},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}

	// Bad offset on a real job.
	st := submit(t, ts.URL, Spec{IDs: []string{"T00"}})
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/results?offset=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative offset: status %d, want 400", resp.StatusCode)
	}
}

// TestServiceObservability checks the mounted obshttp surface: metrics
// exposition carries the scheduler families, /debug/progress carries
// the scheduler source (and a sweep source while one runs), /healthz
// answers.
func TestServiceObservability(t *testing.T) {
	gateCat, gate := gateCatalog(t)
	_, ts := newTestServer(t, gateCat, Options{})

	st := submit(t, ts.URL, Spec{IDs: []string{"G"}})
	waitHTTPState(t, ts.URL, st.ID, StateRunning)

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, raw)
		}
		return string(raw)
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}
	metrics := get("/metrics")
	for _, want := range []string{"serve_jobs_submitted", "serve_jobs_running", "serve_jobs_evicted", "serve_cache_misses",
		"serve_cache_bytes", "serve_cache_evictions", "cost_compile_cache_entries"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	progress := get("/debug/progress")
	var prog map[string]json.RawMessage
	if err := json.Unmarshal([]byte(progress), &prog); err != nil {
		t.Fatalf("/debug/progress not a JSON object: %v\n%s", err, progress)
	}
	if _, ok := prog["scheduler"]; !ok {
		t.Errorf("/debug/progress missing scheduler source: %s", progress)
	}
	if _, ok := prog["sweep:"+st.ID]; !ok {
		t.Errorf("/debug/progress missing running sweep source: %s", progress)
	}

	close(gate)
	waitHTTPState(t, ts.URL, st.ID, StateDone)
	progress = get("/debug/progress")
	if strings.Contains(progress, "sweep:"+st.ID) {
		t.Errorf("finished sweep still registered on /debug/progress: %s", progress)
	}

	// List shows the job in submission order.
	var list []JobStatus
	if err := json.Unmarshal([]byte(get("/api/v1/jobs")), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v, want the one submitted job", list)
	}
}

// waitHTTPState polls the status endpoint until the job reaches state.
func waitHTTPState(t *testing.T, base, id, state string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServiceCancelHTTP covers DELETE on a running job.
func TestServiceCancelHTTP(t *testing.T) {
	gateCat, gate := gateCatalog(t)
	defer close(gate)
	_, ts := newTestServer(t, gateCat, Options{})
	st := submit(t, ts.URL, Spec{IDs: []string{"G"}})
	waitHTTPState(t, ts.URL, st.ID, StateRunning)
	req, _ := http.NewRequest("DELETE", ts.URL+"/api/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	final := waitHTTPState(t, ts.URL, st.ID, StateCancelled)
	if final.Err == "" {
		t.Error("cancelled job has empty err")
	}
}
