package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// roster is the analyzer suite dbsplint must run, in -list order.
var roster = []string{"nilguard", "panicmsg", "exitdiscipline", "stepshape", "stepconfine",
	"lockdiscipline", "detflow", "floatfold"}

// moduleRoot is the repository root relative to this package, where
// "./..." covers the whole module rather than cmd/ alone.
var moduleRoot = filepath.Join("..", "..")

// runSelf builds the dbsplint binary once and executes it in dir (go
// run does not propagate the child's exit code, which the gate tests
// assert on).
func runSelf(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	buildOnce.Do(func() {
		tmp, err := os.MkdirTemp("", "dbsplint-test")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(tmp, "dbsplint")
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
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", binPath, args, err, out)
	}
	return string(out), code
}

// TestRepoLintsClean is the CI gate in miniature: dbsplint over the
// repository's own module, run at the module root, must exit 0 with no
// output.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	out, code := runSelf(t, moduleRoot, "./...")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Errorf("repo not lint-clean (exit %d):\n%s", code, out)
	}
}

// TestFixtureTreeFails: run against the deliberately bad fixture
// module, dbsplint must report findings from every analyzer and exit 1.
func TestFixtureTreeFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	out, code := runSelf(t, fixtures, "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	for _, analyzer := range roster {
		if !strings.Contains(out, ": "+analyzer+": ") {
			t.Errorf("no %s finding in output:\n%s", analyzer, out)
		}
	}
	if !strings.Contains(out, "finding(s)") {
		t.Errorf("no summary line:\n%s", out)
	}
}

// TestNoArgsExitsTwo: a bad invocation prints usage and exits 2.
func TestNoArgsExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	out, code := runSelf(t, ".")
	if code != 2 {
		t.Errorf("exit %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "dbsplint") {
		t.Errorf("no usage text:\n%s", out)
	}
}

// TestListFlag: -list names every analyzer with its framework layer.
func TestListFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	out, code := runSelf(t, ".", "-list")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	// Every line is "name layer doc", in roster order: the layer column
	// must name one of the four framework layers.
	layers := map[string]bool{"parse": true, "typed": true, "dataflow": true, "interproc": true}
	seen := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(roster) {
		t.Errorf("-list prints %d analyzers, want %d:\n%s", len(lines), len(roster), out)
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("-list line %q: want at least name, layer, doc", line)
			continue
		}
		if i < len(roster) && fields[0] != roster[i] {
			t.Errorf("-list line %d names %s, want %s", i+1, fields[0], roster[i])
		}
		if !layers[fields[1]] {
			t.Errorf("-list line %q: second column %q is not a framework layer", line, fields[1])
		}
		seen[fields[1]] = true
	}
	for l := range layers {
		if !seen[l] {
			t.Errorf("-list shows no %s-layer analyzer", l)
		}
	}
}

// TestJSONOutput: -json over the fixture tree emits a parseable array
// of findings and still exits 1.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	out, code := runSelf(t, fixtures, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("empty findings array over the fixture tree")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

// TestJSONClean: a clean run under -json prints an empty array, not
// nothing, so consumers always get valid JSON.
func TestJSONClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	out, code := runSelf(t, moduleRoot, "-json", "./...")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json output = %q, want []", out)
	}
}

// TestOnlyFilter: -only restricts the run to the named analyzers.
func TestOnlyFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	out, code := runSelf(t, fixtures, "-only", "stepshape", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, ": stepshape: ") {
		t.Errorf("no stepshape finding:\n%s", out)
	}
	for _, other := range []string{"nilguard", "panicmsg", "detflow", "lockdiscipline", "stepconfine"} {
		if strings.Contains(out, ": "+other+": ") {
			t.Errorf("-only stepshape still ran %s:\n%s", other, out)
		}
	}
}

// TestSkipFilter: -skip removes the named analyzers and keeps the rest.
func TestSkipFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	out, code := runSelf(t, fixtures, "-skip", "stepshape,detflow", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	for _, skipped := range []string{"stepshape", "detflow"} {
		if strings.Contains(out, ": "+skipped+": ") {
			t.Errorf("-skip still ran %s:\n%s", skipped, out)
		}
	}
	if !strings.Contains(out, ": stepconfine: ") {
		t.Errorf("-skip dropped an analyzer it should have kept:\n%s", out)
	}
}

// TestUnknownAnalyzerExitsTwo: a typo in -only or -skip, or a
// selection that leaves no analyzer to run, is a usage error, never a
// silently empty run.
func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binary")
	}
	for _, args := range [][]string{
		{"-only", "nosuch", "./..."},
		{"-skip", "nosuch", "./..."},
		{"-only", "stepshape", "-skip", "detflow", "./..."},
		{"-only", ",", "./..."},
		{"-skip", strings.Join(roster, ","), "./..."},
	} {
		out, code := runSelf(t, "..", args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2:\n%s", args, code, out)
		}
	}
}
