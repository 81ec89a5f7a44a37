package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// runSelf builds the dbsprun binary once and executes it (go run does
// not propagate the child's exit code, which the error-path tests
// assert on).
func runSelf(t *testing.T, args ...string) (string, int) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "dbsprun-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "dbsprun")
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
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", binPath, args, err, out)
	}
	return string(out), code
}

// TestMetricsReportAllSimulators: -metrics must print the obs report
// with a section for the native run and each of the three simulators,
// including phase and level tables.
func TestMetricsReportAllSimulators(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out, code := runSelf(t, "-prog", "rotate", "-v", "16", "-g", "log", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		"== dbsp ==", "== hmm ==", "== bt ==", "== self ==",
		"phase", "level", "total",
		"hmm.rounds", "bt.blocks.words", "self.local.runs",
		"HMM simulation", "BT  simulation", "self-simulation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestTraceOutJSONL: -trace-out must produce parseable events from the
// engine and the simulators.
func TestTraceOutJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	out, code := runSelf(t, "-prog", "rotate", "-v", "8", "-g", "log", "-metrics", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sims := map[string]bool{}
	for _, e := range events {
		sims[e.Sim] = true
	}
	for _, want := range []string{"dbsp", "hmm", "bt", "self"} {
		if !sims[want] {
			t.Errorf("no events from %q (got %v)", want, sims)
		}
	}
}

// TestProfileFlag: -profile must write both pprof files.
func TestProfileFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	prefix := filepath.Join(t.TempDir(), "prof")
	out, code := runSelf(t, "-prog", "rotate", "-v", "8", "-g", "log", "-profile", prefix)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		if fi, err := os.Stat(prefix + suffix); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", suffix, err)
		}
	}
}

// TestCheckFlagClean: -check on a well-formed program (fft carries
// real Transpose declarations) must report a clean run and exit 0.
func TestCheckFlagClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out, code := runSelf(t, "-prog", "fft", "-v", "16", "-g", "log", "-check")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "invariant check:") || !strings.Contains(out, "clean") {
		t.Errorf("no clean-check summary in output:\n%s", out)
	}
}

// TestCostProfileFlag: -cost-profile writes folded span stacks rooted
// at the program name, covering the native run and both simulators.
func TestCostProfileFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	path := filepath.Join(t.TempDir(), "cost.folded")
	out, code := runSelf(t, "-prog", "rotate", "-v", "16", "-g", "log", "-metrics", "-cost-profile", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	folded := string(raw)
	for _, want := range []string{"rotate;dbsp;", "rotate;hmm;", "rotate;bt;", "rotate;self;"} {
		if !strings.Contains(folded, want) {
			t.Errorf("folded profile missing %q stacks:\n%s", want, folded)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(folded), "\n") {
		fields := strings.Split(line, " ")
		if len(fields) != 2 {
			t.Errorf("malformed folded line %q", line)
		}
	}
}

// TestServeSmoke: -serve starts the observability endpoint and shuts
// it down cleanly after the run (the live-scrape path is covered by
// the experiments CLI test and scripts/obs_smoke.sh).
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out, code := runSelf(t, "-prog", "rotate", "-v", "8", "-g", "log", "-serve", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "serving observability on http://127.0.0.1:") {
		t.Errorf("no serving line:\n%s", out)
	}
}

// TestShardedEngineOutputIdentical: the same program at the default
// shard count and at any explicit -shards must print byte-identical
// stdout — the cost breakdown exposes every charged number, so byte
// equality here is the CLI-level bit-identity check.
func TestShardedEngineOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	def, code := runSelf(t, "-prog", "sort", "-v", "64", "-g", "x^0.5", "-steps")
	if code != 0 {
		t.Fatalf("default shards exit %d:\n%s", code, def)
	}
	for _, shards := range []string{"1", "3", "64", "200"} {
		sharded, code := runSelf(t, "-prog", "sort", "-v", "64", "-g", "x^0.5", "-steps", "-shards", shards)
		if code != 0 {
			t.Fatalf("shards=%s exit %d:\n%s", shards, code, sharded)
		}
		if sharded != def {
			t.Errorf("shards=%s: output differs from the default\ndefault:\n%s\nshards=%s:\n%s", shards, def, shards, sharded)
		}
	}
}

// TestShardedCheckFlag: -check must compose with an explicit -shards —
// the invariant checker rides the engine's StepEvent stream at any
// shard count.
func TestShardedCheckFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	out, code := runSelf(t, "-prog", "fft", "-v", "16", "-g", "log", "-check", "-shards", "3")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "invariant check:") || !strings.Contains(out, "clean") {
		t.Errorf("no clean-check summary in output:\n%s", out)
	}
}

// TestFlagValidationExitsTwo: every bad invocation must print the
// usage text and exit 2 (not 1, not a panic).
func TestFlagValidationExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	cases := [][]string{
		{"-prog", "nosuch"},
		{"-v", "12"},
		{"-g", "bogus^^"},
		{"-prog", "matmul", "-v", "8"},
		{"-metrics", "-vprime", "3"},
		{"-vprime", "2"}, // -vprime without -metrics
		{"-serve", "noport"},
		{"-serve", "127.0.0.1:0", "-serve-linger", "-1s"},
		{"-serve-linger", "5s"}, // -serve-linger without -serve
		{"-engine", "sharded"},  // unknown flag
		{"-shards", "-2"},
		{"extra-arg"},
	}
	for _, args := range cases {
		out, code := runSelf(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(out, "Usage") && !strings.Contains(out, "-prog") {
			t.Errorf("%v: no usage text printed:\n%s", args, out)
		}
	}
}
