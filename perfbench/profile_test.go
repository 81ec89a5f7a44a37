package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spinProfiled(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// The parser reads the profiles runtime/pprof writes: a busy function
// shows up on the stacks of the samples taken while it ran.
func TestParseProfileFindsTheBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinProfiled(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.Count
		for _, f := range s.Funcs {
			if strings.HasSuffix(f, ".spinProfiled") {
				spin += s.Count
				break
			}
		}
	}
	if spin == 0 || spin*2 < total {
		t.Fatalf("%d of %d samples in spinProfiled, want most", spin, total)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/dbsp.(*Ctx).Send":      "repro/internal/dbsp",
		"repro/internal/core/hmmsim.Simulate":  "repro/internal/core/hmmsim",
		"repro/internal/sweep.Run.func1":       "repro/internal/sweep",
		"runtime.mallocgc":                     "runtime",
		"net/http.(*conn).serve":               "net/http",
		"repro/internal/serve.(*Service).Post": "repro/internal/serve",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// Each workload's separation rule rejects exactly the stacks that put
// a layer under load that the workload is meant to leave alone.
func TestSeparationRules(t *testing.T) {
	stack := func(pkgs ...string) map[string]bool {
		s := stackSample{Count: 1}
		for _, p := range pkgs {
			s.Funcs = append(s.Funcs, p+".F")
		}
		return stackLayers(s)
	}
	for _, c := range []struct {
		workload string
		in       map[string]bool
		want     bool
	}{
		{"simulate", stack("repro/internal/dbsp", "repro/internal/core/btsim"), false},
		{"simulate", stack("repro/internal/dbsp"), true},
		{"simulate", stack("repro/internal/sweep"), true},
		{"engine", stack("repro/internal/dbsp"), false},
		{"engine", stack("repro/internal/core/hmmsim"), true},
		{"dbspd", stack("repro/internal/core/selfsim", "repro/internal/experiments", "repro/internal/sweep"), false},
		{"dbspd", stack("repro/internal/core/selfsim", "repro/internal/sweep"), true},
		{"dbspd", stack("repro/internal/serve", "net/http"), false},
	} {
		if got := separationViolated(c.workload, c.in); got != c.want {
			t.Errorf("%s %v: violated = %t, want %t", c.workload, c.in, got, c.want)
		}
	}
}
