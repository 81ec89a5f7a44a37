package selfsim

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/progtest"
)

// TestObservedCostAttribution is the acceptance check for the
// self-simulation: self.cost.total is EXACTLY the returned HostCost,
// the four phase counters partition it, and the partition counters
// mirror the Result fields.
func TestObservedCostAttribution(t *testing.T) {
	v, vPrime := 16, 4
	prog := progtest.Rotate(v, 3, 1, 4, 2, 0)
	g := cost.Log{}
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(1 << 12)
	o := obs.New(reg, ring)

	res, err := Simulate(prog, g, vPrime, &Options{Obs: o})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}

	if got := reg.FloatCounter("self.cost.total").Value(); got != res.HostCost {
		t.Errorf("self.cost.total = %v, want exactly HostCost = %v", got, res.HostCost)
	}
	var sum float64
	for _, c := range phaseCosts(reg) {
		sum += c
	}
	if rel := (sum - res.HostCost) / res.HostCost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("phase sum %v vs HostCost %v (rel err %v): %v", sum, res.HostCost, rel, phaseCosts(reg))
	}
	if got := reg.FloatCounter("self.cost.comm").Value(); got != res.CommCost {
		t.Errorf("self.cost.comm = %v, want %v", got, res.CommCost)
	}
	if got := reg.Counter("self.global.steps").Value(); got != int64(res.GlobalSteps) {
		t.Errorf("self.global.steps = %d, want %d", got, res.GlobalSteps)
	}
	if got := reg.Counter("self.local.runs").Value(); got != int64(res.LocalRuns) {
		t.Errorf("self.local.runs = %d, want %d", got, res.LocalRuns)
	}
	if got := reg.Gauge("self.perhost").Value(); got != int64(v/vPrime) {
		t.Errorf("self.perhost = %d, want %d", got, v/vPrime)
	}

	// One event per global step and per local run, and their costs sum
	// to the total (each event carries its full phase-window delta).
	var globals, locals int64
	var evCost float64
	for _, e := range ring.Events() {
		switch {
		case e.Sim == "self" && e.Kind == "global-step":
			globals++
			evCost += e.Cost
		case e.Sim == "self" && e.Kind == "local-run":
			locals++
			evCost += e.Cost
		}
	}
	if globals != int64(res.GlobalSteps) || locals != int64(res.LocalRuns) {
		t.Errorf("events: %d global, %d local; want %d, %d",
			globals, locals, res.GlobalSteps, res.LocalRuns)
	}
	if rel := (evCost - res.HostCost) / res.HostCost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("Σ event cost %v vs HostCost %v", evCost, res.HostCost)
	}
}

// TestObservedDisabledIdentical: an observer must not perturb the cost.
func TestObservedDisabledIdentical(t *testing.T) {
	prog := progtest.Rotate(16, 3, 2, 1, 0)
	g := cost.Log{}
	plain, err := Simulate(prog, g, 4, nil)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	observed, err := Simulate(prog, g, 4, &Options{Obs: obs.New(obs.NewRegistry(), nil)})
	if err != nil {
		t.Fatalf("observed: %v", err)
	}
	if plain.HostCost != observed.HostCost {
		t.Errorf("observer changed cost: %v vs %v", plain.HostCost, observed.HostCost)
	}
}

// TestProfileAttributionMatchesPhaseCosts: the folded span stacks
// refine the self.cost.<phase> partition per superstep label (local
// runs fold under "local-run"), so the profile total equals HostCost.
func TestProfileAttributionMatchesPhaseCosts(t *testing.T) {
	v, vPrime := 16, 4
	prog := progtest.Rotate(v, 3, 1, 4, 2, 0)
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	prof := obs.NewProfile()
	o.Prof = prof.Scope("job")

	res, err := Simulate(prog, cost.Log{}, vPrime, &Options{Obs: o})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	byPhase := make(map[string]float64)
	var total float64
	for _, sc := range prof.Folded() {
		frames := strings.Split(sc.Stack, ";")
		if len(frames) != 4 || frames[0] != "job" || frames[1] != "self" {
			t.Fatalf("unexpected stack %q", sc.Stack)
		}
		if frames[2] != "local-run" && !strings.HasPrefix(frames[2], "label.") {
			t.Fatalf("unexpected label frame in %q", sc.Stack)
		}
		byPhase[frames[3]] += sc.Cost
		total += sc.Cost
	}
	phases := phaseCosts(reg)
	for ph := range byPhase {
		if _, ok := phases[ph]; !ok {
			t.Errorf("profile phase %s has no self.cost.%s counter", ph, ph)
		}
	}
	for ph, want := range phases {
		got := byPhase[ph]
		if want == 0 {
			if got != 0 {
				t.Errorf("profile %s = %v, counter 0", ph, got)
			}
			continue
		}
		if r := (got - want) / want; r > 1e-9 || r < -1e-9 {
			t.Errorf("profile %s = %v, counter = %v", ph, got, want)
		}
	}
	if r := (total - res.HostCost) / res.HostCost; r > 1e-9 || r < -1e-9 {
		t.Errorf("profile total %v vs HostCost %v", total, res.HostCost)
	}
}

// phaseCosts returns every top-level self.cost.<phase> counter the
// registry holds — what the run registered and charged, not a declared
// list — keyed by phase.
func phaseCosts(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		if ph, ok := strings.CutPrefix(s.Name, "self.cost."); ok && ph != "total" && !strings.Contains(ph, ".") {
			out[ph] = s.Value
		}
	}
	return out
}
