package hmmsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
)

// TestObservedCostAttribution is the acceptance check for the
// observability layer on the HMM simulator: the published phase costs
// partition the run, hmm.cost.total is EXACTLY the simulator's returned
// HostCost (same float64, no re-derivation), and the per-level access
// counts agree with the machine's own depth profile.
func TestObservedCostAttribution(t *testing.T) {
	prog := rotateProg(8, 3, 2, 3, 1, 2, 0)
	f := cost.Log{}
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(1 << 14)
	o := obs.New(reg, ring)

	res, err := Simulate(prog, f, &Options{Obs: o})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	assertSameContexts(t, prog, res.Contexts)

	// Exact identity: the report's total is the simulator's HostCost.
	if got := reg.FloatCounter("hmm.cost.total").Value(); got != res.HostCost {
		t.Errorf("hmm.cost.total = %v, want exactly HostCost = %v", got, res.HostCost)
	}

	// The top-level phases the registry holds partition the charged
	// cost up to float rounding: every charged access happens inside
	// exactly one charged window (the initial context load is an
	// uncharged Poke).
	var sum float64
	for _, c := range phaseCosts(reg) {
		sum += c
	}
	if rel := (sum - res.HostCost) / res.HostCost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("phase sum %v vs HostCost %v (rel err %v): %v", sum, res.HostCost, rel, phaseCosts(reg))
	}

	// Counters mirror the Result fields.
	if got := reg.Counter("hmm.rounds").Value(); got != res.Rounds {
		t.Errorf("hmm.rounds = %d, want %d", got, res.Rounds)
	}
	if got := reg.Counter("hmm.swaps").Value(); got != res.Swaps {
		t.Errorf("hmm.swaps = %d, want %d", got, res.Swaps)
	}

	// Per-label round counts sum to the work rounds: every round but
	// the final termination check executes a labelled superstep.
	var byLabel int64
	for l := 0; l <= 3; l++ {
		byLabel += reg.Counter(fmt.Sprintf("hmm.rounds.label.%d", l)).Value()
	}
	if byLabel != res.Rounds-1 {
		t.Errorf("Σ hmm.rounds.label.* = %d, want %d", byLabel, res.Rounds-1)
	}

	// Level accesses mirror the machine's depth profile, and the level
	// costs sum to the access cost (total minus unit compute ops).
	var levelAcc int64
	var levelCost float64
	for k, n := range res.Stats.Depth {
		got := reg.Counter(fmt.Sprintf("hmm.level.%d.accesses", k)).Value()
		if got != n {
			t.Errorf("hmm.level.%d.accesses = %d, want %d", k, got, n)
		}
		levelAcc += got
		levelCost += reg.FloatCounter(fmt.Sprintf("hmm.level.%d.cost", k)).Value()
	}
	if levelAcc != res.Stats.Accesses() {
		t.Errorf("Σ level accesses = %d, want %d", levelAcc, res.Stats.Accesses())
	}
	accessCost := res.HostCost - float64(res.Stats.ComputeOps)
	if rel := (levelCost - accessCost) / accessCost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("Σ level cost %v vs access cost %v", levelCost, accessCost)
	}

	// One "round" trace event per round, each carrying the cost delta;
	// the event costs also sum to the total.
	var evCost float64
	var evRounds int64
	for _, e := range ring.Events() {
		if e.Sim == "hmm" && e.Kind == "round" {
			evRounds++
			evCost += e.Cost
		}
	}
	if evRounds != res.Rounds-1 {
		t.Errorf("round events = %d, want %d", evRounds, res.Rounds-1)
	}
	if rel := (evCost - res.HostCost) / res.HostCost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("Σ event cost %v vs HostCost %v", evCost, res.HostCost)
	}
}

// TestProfileAttributionMatchesPhaseCosts: with a span-stack profile
// attached, the per-label stacks sum phase-by-phase to the same
// hmm.cost.<phase> counters — the folded profile is a refinement of the
// declared cost partition, not a second accounting.
func TestProfileAttributionMatchesPhaseCosts(t *testing.T) {
	prog := rotateProg(8, 3, 2, 3, 1, 2, 0)
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	prof := obs.NewProfile()
	o.Prof = prof.Scope("job")

	res, err := Simulate(prog, cost.Log{}, &Options{Obs: o})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}

	byPhase := make(map[string]float64)
	var total float64
	for _, sc := range prof.Folded() {
		frames := strings.Split(sc.Stack, ";")
		if len(frames) != 4 || frames[0] != "job" || frames[1] != "hmm" || !strings.HasPrefix(frames[2], "label.") {
			t.Fatalf("unexpected stack %q", sc.Stack)
		}
		byPhase[frames[3]] += sc.Cost
		total += sc.Cost
	}
	phases := phaseCosts(reg)
	for ph, want := range phases {
		if got := byPhase[ph]; rel(got, want) > 1e-9 {
			t.Errorf("profile %s = %v, counter = %v", ph, got, want)
		}
	}
	for ph := range byPhase {
		if _, ok := phases[ph]; !ok {
			t.Errorf("profile phase %s has no hmm.cost.%s counter", ph, ph)
		}
	}
	if rel(total, res.HostCost) > 1e-9 {
		t.Errorf("profile total %v vs HostCost %v", total, res.HostCost)
	}
}

// phaseCosts returns every top-level hmm.cost.<phase> counter the
// registry holds — what the run registered and charged, not a declared
// list — keyed by phase.
func phaseCosts(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		if ph, ok := strings.CutPrefix(s.Name, "hmm.cost."); ok && ph != "total" && !strings.Contains(ph, ".") {
			out[ph] = s.Value
		}
	}
	return out
}

func rel(a, b float64) float64 {
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}

// TestObservedDisabledIdentical: running with and without an observer
// must charge the identical cost (observability must not perturb the
// simulation).
func TestObservedDisabledIdentical(t *testing.T) {
	prog := rotateProg(8, 2, 1, 0)
	f := cost.Log{}
	plain, err := Simulate(prog, f, nil)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	o := obs.New(obs.NewRegistry(), nil)
	observed, err := Simulate(prog, f, &Options{Obs: o})
	if err != nil {
		t.Fatalf("observed: %v", err)
	}
	if plain.HostCost != observed.HostCost {
		t.Errorf("observer changed cost: %v vs %v", plain.HostCost, observed.HostCost)
	}
}
