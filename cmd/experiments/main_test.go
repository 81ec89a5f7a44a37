package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// runSelf builds the experiments binary once and executes it (go run
// does not propagate the child's exit code, which the error-path tests
// assert on). Stdout and stderr are returned separately: the output
// contract covers stdout only.
func runSelf(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "experiments-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "experiments")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = os.ErrInvalid
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build: %v\n%s", buildErr, binPath)
	}
	cmd := exec.Command(binPath, args...)
	var outBuf, errBuf strings.Builder
	cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", binPath, args, err, errBuf.String())
	}
	return outBuf.String(), errBuf.String(), code
}

// The engine's central promise at the CLI boundary: stdout is
// byte-identical whatever the worker count, in both output formats.
func TestOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	sel := "-run=E0[1-3]"
	mdRef, _, code := runSelf(t, "-quick", sel, "-workers=1")
	if code != 0 {
		t.Fatalf("workers=1 exited %d", code)
	}
	jsonRef, _, code := runSelf(t, "-quick", sel, "-workers=1", "-json")
	if code != 0 {
		t.Fatalf("workers=1 -json exited %d", code)
	}
	for _, w := range []string{"-workers=2", "-workers=7", "-workers=0"} {
		md, _, code := runSelf(t, "-quick", sel, w)
		if code != 0 || md != mdRef {
			t.Errorf("%s: markdown diverges from serial run (exit %d)", w, code)
		}
		js, _, code := runSelf(t, "-quick", sel, w, "-json")
		if code != 0 || js != jsonRef {
			t.Errorf("%s: JSON diverges from serial run (exit %d)", w, code)
		}
	}
}

// -run filters by regexp; -only by exact id; both compose.
func TestRunAndOnlyFiltering(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	out, _, code := runSelf(t, "-quick", "-run=E0[12]$")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "## E01") || !strings.Contains(out, "## E02") {
		t.Error("E01/E02 missing from -run output")
	}
	if strings.Contains(out, "## E03") {
		t.Error("-run matched too much")
	}
	out, _, code = runSelf(t, "-quick", "-run=E0", "-only=E05")
	if code != 0 || !strings.Contains(out, "## E05") || strings.Contains(out, "## E01") {
		t.Errorf("-run+-only composition wrong (exit %d)", code)
	}
}

// Flag-validation failures exit 2 with usage.
func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	cases := [][]string{
		{"-run=["},
		{"-only=E99"},
		{"-run=NOPE"},
		{"-serve=nohostport"},
		{"-serve=127.0.0.1:0", "-serve-linger=-1s"},
		{"-serve-linger=5s"}, // linger without -serve
	}
	for _, args := range cases {
		_, stderr, code := runSelf(t, append([]string{"-quick"}, args...)...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-workers") {
			t.Errorf("%v: no usage text on stderr", args)
		}
	}
}

// -jsonl writes one stable-ordered record per experiment.
func TestJSONLRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.jsonl")
	_, _, code := runSelf(t, "-quick", "-run=E0[1-4]", "-workers=3", "-metrics", "-jsonl", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := sweep.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"E01", "E02", "E03", "E04"}
	if len(recs) != len(wantIDs) {
		t.Fatalf("%d records, want %d", len(recs), len(wantIDs))
	}
	for i, rec := range recs {
		if rec.ID != wantIDs[i] || rec.Seq != i || rec.Status != "ok" {
			t.Errorf("record %d = %s/%d/%s", i, rec.ID, rec.Seq, rec.Status)
		}
		if rec.Seed != sweep.SeedFor(0, rec.ID) {
			t.Errorf("record %s seed = %d, want SeedFor", rec.ID, rec.Seed)
		}
		if len(rec.Value) == 0 {
			t.Errorf("record %s has no table value", rec.ID)
		}
	}
	// E03/E04 run HMM simulations, so with -metrics their records carry
	// captured hmm.* samples.
	var sawHMM bool
	for _, m := range recs[2].Metrics {
		if strings.HasPrefix(m.Name, "hmm.") {
			sawHMM = true
		}
	}
	if !sawHMM {
		t.Error("E03 record captured no hmm.* metrics")
	}
}

// TestServeLiveObservability drives the tentpole end to end: run a
// sweep with -serve, scrape /debug/progress until every job has moved
// queued → running → ok, check /metrics exposes all the expected
// families in Prometheus text, then interrupt the lingering server and
// require a clean exit with the canonical stdout.
func TestServeLiveObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	// Reference stdout: serving must not perturb the output contract.
	ref, _, code := runSelf(t, "-quick", "-run=E0[1-4]", "-workers=2")
	if code != 0 {
		t.Fatalf("reference run exited %d", code)
	}

	cmd := exec.Command(binPath, "-quick", "-run=E0[1-4]", "-workers=2",
		"-serve=127.0.0.1:0", "-serve-linger=60s", "-cost-profile="+filepath.Join(t.TempDir(), "cost.folded"))
	var outBuf strings.Builder
	cmd.Stdout = &outBuf
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The bound address is announced on stderr before the sweep starts.
	var addr string
	sc := bufio.NewScanner(stderrPipe)
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, "serving observability on http://") {
			addr = line[strings.Index(line, "http://")+len("http://"):]
			break
		}
	}
	if addr == "" {
		cmd.Wait()
		t.Fatalf("no serving line on stderr (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stderrPipe)

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Poll the progress endpoint until the sweep reports done: the
	// /debug/progress view must track the jobs through their state
	// transitions to terminal "ok".
	var snap sweep.ProgressSnapshot
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body := get("/debug/progress")
		if status != http.StatusOK {
			t.Fatalf("/debug/progress status %d", status)
		}
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("/debug/progress not JSON: %v\n%s", err, body)
		}
		if snap.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reported done: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if snap.Total != 4 || snap.Completed != 4 || snap.Failed != 0 {
		t.Errorf("final progress = %+v, want 4/4 completed", snap)
	}
	for _, j := range snap.Jobs {
		if j.Status != "ok" {
			t.Errorf("job %s finished %q, want ok", j.ID, j.Status)
		}
		if j.WallMS < 0 || j.UpdatedMS < j.StartMS {
			t.Errorf("job %s has inconsistent timestamps: %+v", j.ID, j)
		}
	}

	// /metrics during the linger window: sweep engine families plus the
	// hmm.* families from E03/E04, in Prometheus text format.
	status, metrics := get("/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for _, want := range []string{
		"# TYPE sweep_jobs_started counter",
		"# TYPE sweep_jobs_running gauge",
		`sweep_job_wall_ms_bucket{le="+Inf"}`,
		"sweep_job_wall_ms_quantile",
		"hmm_cost_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if status, body := get("/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", status, body)
	}
	if status, body := get("/debug/costprofile"); status != http.StatusOK || !strings.Contains(body, ";hmm;") {
		t.Errorf("/debug/costprofile = %d, want folded hmm stacks:\n%s", status, body)
	}

	// Interrupt the linger: the run finished clean, so the process must
	// shut the server down and exit 0 with the untouched report.
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after interrupt: %v", err)
	}
	if outBuf.String() != ref {
		t.Errorf("stdout with -serve diverges from reference run:\n got: %q\nwant: %q", outBuf.String(), ref)
	}
}

// -metrics appends the aggregate report including the sweep engine's
// own throughput section.
func TestMetricsReportIncludesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	out, _, code := runSelf(t, "-quick", "-run=E0[34]", "-workers=2", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"== sweep ==", "sweep.jobs.started", "== hmm ==", "Aggregate simulation metrics"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics report missing %q", want)
		}
	}
}

// -metrics keeps stdout reproducible: two identical runs print the same
// bytes, because the wall-clock sweep.job.wall_ms histogram stays off
// the stdout report (/metrics still serves it).
func TestMetricsReportReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	args := []string{"-quick", "-run=E0[34]", "-workers=1", "-metrics"}
	first := runOK(t, args...)
	requireSameStdout(t, "two identical -metrics runs", first, runOK(t, args...))
	if strings.Contains(first, "sweep.job.wall_ms") {
		t.Error("stdout report includes the wall-clock sweep.job.wall_ms histogram")
	}
}

// Serving leaves the -metrics report alone: the live sweep.Progress
// gauges (sweep.eta_ms, sweep.jobs.queued, sweep.jobs.running) that
// only a served run registers stay off stdout, so a run with -serve
// prints the bytes a run without it does.
func TestMetricsReportUnchangedByServe(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	args := []string{"-quick", "-run=E0[34]", "-workers=1", "-metrics"}
	plain := runOK(t, args...)
	served := runOK(t, append(args, "-serve=127.0.0.1:0")...)
	requireSameStdout(t, "-metrics runs with and without -serve", plain, served)
}

// runOK runs the binary and returns its stdout, failing the test on a
// nonzero exit.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, code := runSelf(t, args...)
	if code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, stderr)
	}
	return out
}

// requireSameStdout reports the first differing line of two stdouts.
func requireSameStdout(t *testing.T, what, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Errorf("%s differ at stdout line %d:\n first: %q\nsecond: %q", what, i+1, al[i], bl[i])
			return
		}
	}
	t.Errorf("%s print %d and %d stdout lines", what, len(al), len(bl))
}
