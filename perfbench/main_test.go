package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
)

// A short traced dbspd run end to end: the tenants, the tracer
// and the checks, with the last line in the benchmark's result form.
func TestDBSPDRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service and runs quick sweeps")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // spans land under the working directory
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	defer func(b, a int) { setupBefore, setupAfter = b, a }(setupBefore, setupAfter)
	setupBefore, setupAfter = 0, 0 // the test binary cannot serve as a set-up child
	var out bytes.Buffer
	if code := run([]string{"--workload", "dbspd", "--seed", "3", "--seconds", "1", "--trace", "1"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%t attempted=%d failed=%d:\n%s", res.Correct, res.Attempted, res.Failed, out.String())
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want every per-layer metric (%d)", len(res.Metrics), len(perLayer))
	}
	if v := res.Metrics["cpu_samples.separation_violations"].Value; v != 0 {
		t.Errorf("%v CPU samples ran a simulator outside an experiment table", v)
	}
	if res.Metrics["cpu_samples.total"].Value == 0 || res.Metrics["serve.cache.hits"].Value == 0 {
		t.Errorf("no CPU samples or cache hits recorded")
	}
}

// --setup-only times one set-up and prints just its seconds, which is
// what a run reads back from each set-up child.
func TestSetupOnlyPrintsSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the service")
	}
	var out bytes.Buffer
	if code := run([]string{"--workload", "dbspd", "--seed", "3", "--setup-only"}, &out, io.Discard); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if s, err := strconv.ParseFloat(strings.TrimSpace(out.String()), 64); err != nil || s <= 0 {
		t.Fatalf("output %q, want one positive number of seconds", out.String())
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dbspd", "--seconds", "0"},
		{"--workload", "dbspd", "--trace", "2"},
		{"--workload", "dbspd", "extra"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes of output, want 2 and none", args, code, out.Len())
		}
	}
}
