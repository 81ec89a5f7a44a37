package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core/hmmsim"
	"repro/internal/cost"
	"repro/internal/progtest"
)

// Work is v × the supersteps of the program as built: the smoothing a
// simulator applies adds supersteps, but not guest work, so a simulator
// that smoothed less would not look faster.
func TestPstepsCountsUnsmoothedSupersteps(t *testing.T) {
	// Jumping from the finest communicating label straight to the
	// coarsest and back makes smoothing insert the levels in between.
	prog := progtest.Rotate(256, 7, 0, 7)
	if got, want := psteps(prog), int64(256*4); got != want {
		t.Fatalf("psteps = %d, want v × (3 rotate steps + closing step) = %d", got, want)
	}
	res, err := hmmsim.Simulate(prog, cost.Poly{Alpha: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SmoothedSteps <= len(prog.Steps) {
		t.Fatalf("smoothing kept %d supersteps; the test needs a program it lengthens", res.SmoothedSteps)
	}
	if psteps(prog) == int64(prog.V*res.SmoothedSteps) {
		t.Errorf("psteps follows the smoothed superstep count")
	}
}

// The mixes are functions of the seed alone.
func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := simulatePrograms(3), simulatePrograms(3), simulatePrograms(4)
	if len(a) != 11 {
		t.Fatalf("simulate mix has %d programs, want 11", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || psteps(a[i]) != psteps(b[i]) {
			t.Errorf("program %d differs between two builds from one seed", i)
		}
	}
	if a[4].Name == c[4].Name {
		t.Errorf("the random program does not depend on the seed")
	}
	p, q := planDBSPD(9), planDBSPD(9)
	if p.base != q.base || p.choice != q.choice {
		t.Errorf("dbspd plan differs between two builds from one seed")
	}
	if coldSeed(p.base, 0, 3) == coldSeed(p.base, 1, 3) {
		t.Errorf("two tenants share a cold seed")
	}
}

// BENCHMARK.json must list exactly the metrics the program prints.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the program prints %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, the program prints %+v", c.kind, i, c.got[i], c.want[i])
			}
		}
	}
}
