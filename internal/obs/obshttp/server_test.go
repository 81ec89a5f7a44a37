package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

// TestServeEndpoints spins up a real listener on an ephemeral port and
// exercises every endpoint, then shuts down gracefully. Scrapes are
// snapshot-only: afterwards the registry and the profile must read
// exactly as before, or a scrape could perturb the sweep it observes.
func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("hmm.reads").Add(3)
	reg.Histogram("sweep.job.wall_ms").Observe(5)
	prof := obs.NewProfile()
	prof.Scope("E01").Add(2, "hmm", "compute")
	srv, err := Serve("127.0.0.1:0", Options{
		Registry:  reg,
		Progress:  func() any { return map[string]int{"total": 5, "completed": 2} },
		Profile:   prof,
		Quantiles: []float64{0.5, 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	wantSamples, wantStacks := reg.Snapshot(), prof.Folded()

	code, body, ct := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "# TYPE hmm_reads counter\nhmm_reads 3\n") ||
		!strings.Contains(body, `sweep_job_wall_ms_quantile{quantile="0.99"}`) {
		t.Errorf("/metrics body = %q", body)
	}

	code, body, ct = get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	_ = ct

	code, body, ct = get(t, base+"/debug/progress")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/debug/progress = %d %q", code, ct)
	}
	var prog map[string]int
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/debug/progress body %q: %v", body, err)
	}
	if prog["total"] != 5 || prog["completed"] != 2 {
		t.Errorf("/debug/progress = %v", prog)
	}

	code, body, _ = get(t, base+"/debug/costprofile")
	if code != http.StatusOK || body != "E01;hmm;compute 2\n" {
		t.Errorf("/debug/costprofile = %d %q", code, body)
	}

	code, body, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (len %d)", code, len(body))
	}

	if got := reg.Snapshot(); !reflect.DeepEqual(got, wantSamples) {
		t.Errorf("scrapes changed the registry:\n got  %+v\n want %+v", got, wantSamples)
	}
	if got := prof.Folded(); !reflect.DeepEqual(got, wantStacks) {
		t.Errorf("scrapes changed the cost profile:\n got  %+v\n want %+v", got, wantStacks)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after Shutdown")
	}
}

// TestServeMissingSources: endpoints whose source is nil answer 404 so
// CLIs can share one handler shape regardless of enabled flags.
func TestServeMissingSources(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/debug/progress", "/debug/costprofile"} {
		if code, _, _ := get(t, base+path); code != http.StatusNotFound {
			t.Errorf("%s with nil source: status = %d, want 404", path, code)
		}
	}
	if code, _, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz should always answer, got %d", code)
	}
}

// TestServeBadAddr: a malformed listen address surfaces as an error,
// not a panic or a hung goroutine.
func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", Options{}); err == nil {
		t.Fatal("Serve on bad address succeeded")
	}
}

// TestProgressSet: named sources fan into one deterministic JSON
// payload on /debug/progress, registration is live (a source added or
// removed between requests shows up on the next poll), and snapshots
// poll sources at request time.
func TestProgressSet(t *testing.T) {
	set := NewProgressSet()
	polled := 0
	set.Register("scheduler", func() any { return map[string]int{"queued": 3} })
	set.Register("sweep-a", func() any { polled++; return "running" })

	snap := set.Snapshot().(map[string]any)
	if len(snap) != 2 || snap["sweep-a"] != "running" {
		t.Fatalf("snapshot = %v, want scheduler + sweep-a", snap)
	}
	if polled != 1 {
		t.Errorf("source polled %d times, want once per Snapshot", polled)
	}

	// Through the handler: the payload is a JSON object keyed by source
	// name, so a scraper sees every in-flight sweep in one request.
	srv, err := Serve("127.0.0.1:0", Options{Progress: set.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	code, body, _ := get(t, "http://"+srv.Addr()+"/debug/progress")
	if code != http.StatusOK {
		t.Fatalf("/debug/progress status = %d", code)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("payload not a JSON object: %v\n%s", err, body)
	}
	if _, ok := decoded["scheduler"]; !ok {
		t.Errorf("payload missing scheduler source: %s", body)
	}
	if !strings.Contains(body, `"running"`) {
		t.Errorf("payload missing sweep-a value: %s", body)
	}

	// Unregister removes the source from the next snapshot.
	set.Unregister("sweep-a")
	_, body, _ = get(t, "http://"+srv.Addr()+"/debug/progress")
	if strings.Contains(body, "sweep-a") {
		t.Errorf("unregistered source still served: %s", body)
	}

	// Replacing a source under the same name takes effect immediately.
	set.Register("scheduler", func() any { return map[string]int{"queued": 0} })
	_, body, _ = get(t, "http://"+srv.Addr()+"/debug/progress")
	if !strings.Contains(body, `"queued": 0`) {
		t.Errorf("replaced source not live: %s", body)
	}
}
