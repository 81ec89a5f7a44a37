package btsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/progtest"
)

// TestObservedCostAttribution is the acceptance check for the BT
// simulator: the top-level phase costs partition the run, bt.cost.total
// is EXACTLY the returned HostCost, and the machine-level counters
// mirror the Result's accounting.
func TestObservedCostAttribution(t *testing.T) {
	// Large enough to exercise the sorting delivery path (cluster above
	// the direct-delivery threshold).
	prog := progtest.Rotate(32, 5, 3, 4, 1, 2, 0)
	f := cost.Poly{Alpha: 0.5}
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)

	res, err := Simulate(prog, f, &Options{Obs: o, CheckInvariants: true})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	assertSameContexts(t, prog, res.Contexts)

	if got := reg.FloatCounter("bt.cost.total").Value(); got != res.HostCost {
		t.Errorf("bt.cost.total = %v, want exactly HostCost = %v", got, res.HostCost)
	}

	// The top-level phases the registry holds partition the run; the
	// dotted deliver.* refinements are checked against deliver below.
	var sum float64
	for _, c := range phaseCosts(reg) {
		sum += c
	}
	if rel := (sum - res.HostCost) / res.HostCost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("phase sum %v vs HostCost %v (rel err %v): %v", sum, res.HostCost, rel, phaseCosts(reg))
	}

	// The deliver.* refinements in turn partition the deliver phase:
	// every charged operation in deliver()/routeDeliver() happens inside
	// a sub-phase window (direct delivery would be the exception, but
	// this cluster size forces the sorting path for coarse labels; fine
	// labels use direct delivery, whose cost stays in "deliver" alone —
	// so the sub-phases can only undershoot).
	deliver := reg.FloatCounter("bt.cost.deliver").Value()
	var sub float64
	for _, s := range []string{"juggle", "extract", "sort", "merge", "riffle"} {
		sub += reg.FloatCounter("bt.cost.deliver." + s).Value()
	}
	if sub == 0 {
		t.Error("sorting delivery path not exercised (no deliver.* sub-phase cost)")
	}
	if sub > deliver*(1+1e-9) {
		t.Errorf("Σ deliver.* = %v exceeds deliver = %v", sub, deliver)
	}

	if got := reg.Counter("bt.rounds").Value(); got != res.Rounds {
		t.Errorf("bt.rounds = %d, want %d", got, res.Rounds)
	}
	if got := reg.Counter("bt.swaps").Value(); got != res.Swaps {
		t.Errorf("bt.swaps = %d, want %d", got, res.Swaps)
	}
	if got := reg.Counter("bt.blocks.copies").Value(); got != res.Blocks.Copies {
		t.Errorf("bt.blocks.copies = %d, want %d", got, res.Blocks.Copies)
	}
	if got := reg.Counter("bt.blocks.moved").Value(); got != res.Blocks.Words {
		t.Errorf("bt.blocks.moved = %d, want %d", got, res.Blocks.Words)
	}
	if got := reg.Counter("bt.sort.comparisons").Value(); got <= 0 {
		t.Errorf("bt.sort.comparisons = %d, want > 0", got)
	}

	// The block-size histogram counts every transfer once, by the
	// machine's size buckets, and its sum is exactly the words moved.
	h := reg.Histogram("bt.blocks.words")
	if h.Count() != res.Blocks.Copies {
		t.Errorf("histogram count = %d, want %d copies", h.Count(), res.Blocks.Copies)
	}
	if h.Sum() != res.Blocks.Words {
		t.Errorf("histogram sum = %d, want exactly %d words", h.Sum(), res.Blocks.Words)
	}
	for k, n := range h.Buckets() {
		if n != res.Blocks.Sizes[k] {
			t.Errorf("histogram bucket %d = %d, want %d", k, n, res.Blocks.Sizes[k])
		}
	}

	// Level accesses mirror the depth profile (word accesses only;
	// block transfers are counted in bt.blocks.*).
	var levelAcc int64
	for k, n := range res.Stats.Depth {
		levelAcc += reg.Counter(fmt.Sprintf("bt.level.%d.accesses", k)).Value()
		if got := reg.Counter(fmt.Sprintf("bt.level.%d.accesses", k)).Value(); got != n {
			t.Errorf("bt.level.%d.accesses = %d, want %d", k, got, n)
		}
	}
	if levelAcc != res.Stats.Accesses() {
		t.Errorf("Σ level accesses = %d, want %d", levelAcc, res.Stats.Accesses())
	}
}

// TestObservedDisabledIdentical: an observer must not perturb the
// charged cost.
func TestObservedDisabledIdentical(t *testing.T) {
	prog := progtest.Rotate(16, 3, 2, 1, 0)
	f := cost.Log{}
	plain, err := Simulate(prog, f, nil)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	observed, err := Simulate(prog, f, &Options{Obs: obs.New(obs.NewRegistry(), nil)})
	if err != nil {
		t.Fatalf("observed: %v", err)
	}
	if plain.HostCost != observed.HostCost {
		t.Errorf("observer changed cost: %v vs %v", plain.HostCost, observed.HostCost)
	}
}

// TestProfileAttributionMatchesPhaseCosts: the folded span stacks are a
// per-label refinement of the plain bt.cost.<phase> partition — every
// non-dotted phase window folds into exactly one stack, so the profile
// total equals HostCost.
func TestProfileAttributionMatchesPhaseCosts(t *testing.T) {
	prog := progtest.Rotate(32, 5, 3, 4, 1, 2, 0)
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	prof := obs.NewProfile()
	o.Prof = prof.Scope("job")

	res, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{Obs: o})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	byPhase := make(map[string]float64)
	var total float64
	for _, sc := range prof.Folded() {
		frames := strings.Split(sc.Stack, ";")
		if len(frames) != 4 || frames[0] != "job" || frames[1] != "bt" {
			t.Fatalf("unexpected stack %q", sc.Stack)
		}
		if frames[2] != "init" && !strings.HasPrefix(frames[2], "label.") {
			t.Fatalf("unexpected label frame in %q", sc.Stack)
		}
		byPhase[frames[3]] += sc.Cost
		total += sc.Cost
	}
	phases := phaseCosts(reg)
	for ph, want := range phases {
		got := byPhase[ph]
		if r := (got - want) / want; r > 1e-9 || r < -1e-9 {
			t.Errorf("profile %s = %v, counter = %v", ph, got, want)
		}
	}
	for ph := range byPhase {
		if _, ok := phases[ph]; !ok {
			t.Errorf("profile phase %s has no bt.cost.%s counter", ph, ph)
		}
	}
	if r := (total - res.HostCost) / res.HostCost; r > 1e-9 || r < -1e-9 {
		t.Errorf("profile total %v vs HostCost %v", total, res.HostCost)
	}
}

// phaseCosts returns every top-level bt.cost.<phase> counter the
// registry holds — what the run registered and charged, not a declared
// list — keyed by phase.
func phaseCosts(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		if ph, ok := strings.CutPrefix(s.Name, "bt.cost."); ok && ph != "total" && !strings.Contains(ph, ".") {
			out[ph] = s.Value
		}
	}
	return out
}
