package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/sweep"
)

var (
	buildOnce sync.Once
	dbspdBin  string
	expBin    string
	buildErr  error
	// dbspdBuildFlags are extra go build flags for the daemon;
	// race_test.go adds -race when the tests themselves run under it.
	dbspdBuildFlags []string
)

// buildBins builds the dbspd and experiments binaries once (go run
// does not propagate exit codes, and the determinism test needs the
// real CLI for its reference bytes).
func buildBins(t *testing.T) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dbspd-test")
		if err != nil {
			buildErr = err
			return
		}
		dbspdBin = filepath.Join(dir, "dbspd")
		args := append(append([]string{"build"}, dbspdBuildFlags...), "-o", dbspdBin, ".")
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build dbspd: %v\n%s", err, out)
			return
		}
		expBin = filepath.Join(dir, "experiments")
		if out, err := exec.Command("go", "build", "-o", expBin, "repro/cmd/experiments").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build experiments: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
}

// daemon is one running dbspd process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stderr  *strings.Builder
	mu      sync.Mutex    // guards stderr
	drained chan struct{} // closed once the stderr scanner hits EOF
}

// startDaemon launches dbspd on a free port and waits for the
// serving-address announcement.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	buildBins(t)
	d := &daemon{stderr: &strings.Builder{}, drained: make(chan struct{})}
	d.cmd = exec.Command(dbspdBin, append([]string{"-listen=127.0.0.1:0"}, args...)...)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "dbspd: serving on http://"); ok {
				addr <- rest
			}
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(20 * time.Second):
		t.Fatal("daemon never announced its address")
	}
	return d
}

// stop sends SIGTERM and returns the exit code and captured stderr.
func (d *daemon) stop(t *testing.T) (int, string) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait for the stderr scanner to hit EOF before cmd.Wait: Wait
	// closes the pipe, which would race the scanner out of the final
	// shutdown announcement.
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		t.Fatal("daemon stderr never drained after SIGTERM")
	}
	err := d.cmd.Wait()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return code, d.stderr.String()
}

// submit POSTs a submission and returns the decoded status fields used
// by the tests.
func submit(t *testing.T, base, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var st map[string]any
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("submit reply %q: %v", raw, err)
	}
	return st
}

// results streams a job's complete JSONL output (blocks until the
// sweep finishes).
func results(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %s: %s", resp.Status, raw)
	}
	return raw
}

// maskJSONL zeroes the documented run-varying start_ms/wall_ms fields
// of each record — the same normalization the engine's golden tests
// apply — leaving every other byte intact.
func maskJSONL(t *testing.T, raw []byte) string {
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
	return out.String()
}

// TestDaemonMatchesExperimentsCLI is the acceptance byte-compare: for
// three (quota, workers) settings, the daemon's streamed JSONL for a
// program equals what `experiments -jsonl -keep-going` writes for the
// same selection, seed and flags, once the run-varying timing fields
// are masked. A resubmission must then be answered from cache with the
// exact bytes of the first response.
func TestDaemonMatchesExperimentsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build and full experiment runs")
	}
	buildBins(t)

	refFile := filepath.Join(t.TempDir(), "ref.jsonl")
	cmd := exec.Command(expBin, "-quick", "-only=E01,E02", "-seed=3", "-keep-going", "-jsonl="+refFile)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("experiments: %v\n%s", err, out)
	}
	refRaw, err := os.ReadFile(refFile)
	if err != nil {
		t.Fatal(err)
	}
	want := maskJSONL(t, refRaw)

	settings := [][]string{
		{"-tenant-quota=1", "-max-sweeps=1", "-workers=1"},
		{"-tenant-quota=2", "-max-sweeps=2", "-workers=4"},
		{"-tenant-quota=4", "-max-sweeps=4", "-workers=16"},
	}
	spec := `{"ids":["E01","E02"],"quick":true,"seed":3}`
	for _, args := range settings {
		t.Run(strings.Join(args, "_"), func(t *testing.T) {
			d := startDaemon(t, args...)
			st := submit(t, d.base, spec)
			id := st["id"].(string)
			first := results(t, d.base, id)
			if got := maskJSONL(t, first); got != want {
				t.Errorf("daemon bytes differ from experiments CLI\ndaemon:\n%s\ncli:\n%s", got, want)
			}
			st2 := submit(t, d.base, spec)
			if st2["cached"] != true {
				t.Errorf("resubmission not cached: %v", st2)
			}
			if again := results(t, d.base, st2["id"].(string)); !bytes.Equal(again, first) {
				t.Error("cached stream differs from the first run's bytes")
			}
			if code, _ := d.stop(t); code != 0 {
				t.Errorf("daemon exit code %d, want 0", code)
			}
		})
	}
}

// TestDaemonGracefulShutdown pins the signal contract: SIGTERM while
// idle exits 0 after announcing the shutdown.
func TestDaemonGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	d := startDaemon(t)
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %s", resp.Status)
	}
	code, stderr := d.stop(t)
	if code != 0 {
		t.Errorf("exit code %d, want 0\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "shutting down") {
		t.Errorf("stderr missing shutdown announcement:\n%s", stderr)
	}
}

// TestDaemonObservability scrapes the mounted endpoints of a live
// daemon.
func TestDaemonObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	d := startDaemon(t)
	st := submit(t, d.base, `{"ids":["E01"],"quick":true,"seed":3}`)
	results(t, d.base, st["id"].(string)) // wait for completion
	get := func(path string) string {
		resp, err := http.Get(d.base + path)
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
	metrics := get("/metrics")
	for _, want := range []string{"serve_jobs_submitted", "serve_jobs_evicted", "serve_cache_bytes", "serve_cache_evictions",
		"sweep_jobs_completed", "cost_compile_cache_entries"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if prog := get("/debug/progress"); !strings.Contains(prog, "scheduler") {
		t.Errorf("/debug/progress missing scheduler source: %s", prog)
	}
	if code, _ := d.stop(t); code != 0 {
		t.Errorf("daemon exit code %d, want 0", code)
	}
}

// TestUsageErrors pins the exit-2 flag validation.
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	buildBins(t)
	cases := [][]string{
		{"-listen=nohostport"},
		{"-workers=-1"},
		{"-tenant-quota=0"},
		{"-max-sweeps=0"},
		{"extra-arg"},
	}
	for _, args := range cases {
		cmd := exec.Command(dbspdBin, args...)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "Usage") && !strings.Contains(string(out), "-listen") {
			t.Errorf("%v: no usage text:\n%s", args, out)
		}
	}
}
