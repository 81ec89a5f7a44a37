package dbsp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
)

// TestRunObservedPublishes checks that a native run's accounting lands
// in the registry verbatim: dbsp.cost.total is exactly Result.Cost, the
// per-label superstep histogram counts every step, and one superstep
// event is emitted per executed superstep.
func TestRunObservedPublishes(t *testing.T) {
	prog := pairProg(16)
	reg := obs.NewRegistry()
	ring := obs.NewRingSink(64)
	o := obs.New(reg, ring)

	res, tr, err := RunObserved(prog, cost.Log{}, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.FloatCounter("dbsp.cost.total").Value(); got != res.Cost {
		t.Errorf("dbsp.cost.total = %v, want exactly %v", got, res.Cost)
	}
	if got := reg.FloatCounter("dbsp.cost.comm").Value(); got != res.CommCost() {
		t.Errorf("dbsp.cost.comm = %v, want %v", got, res.CommCost())
	}
	var sum float64
	for _, c := range phaseCosts(reg) {
		sum += c
	}
	if rel := (sum - res.Cost) / res.Cost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("phase sum %v vs Cost %v (rel err %v): %v", sum, res.Cost, rel, phaseCosts(reg))
	}
	if got := reg.Counter("dbsp.supersteps").Value(); got != int64(len(res.Steps)) {
		t.Errorf("dbsp.supersteps = %d, want %d", got, len(res.Steps))
	}
	var byLabel int64
	for l := 0; l <= Log2(prog.V); l++ {
		byLabel += reg.Counter(fmt.Sprintf("dbsp.lambda.label.%d", l)).Value()
	}
	if byLabel != int64(len(res.Steps)) {
		t.Errorf("Σ dbsp.lambda.label.* = %d, want %d", byLabel, len(res.Steps))
	}
	if got := reg.Counter("dbsp.messages").Value(); got != tr.Messages() {
		t.Errorf("dbsp.messages = %d, want %d", got, tr.Messages())
	}

	var events int
	var evCost float64
	for _, e := range ring.Events() {
		if e.Sim == "dbsp" && e.Kind == "superstep" {
			events++
			evCost += e.Cost
		}
	}
	if events != len(res.Steps) {
		t.Errorf("superstep events = %d, want %d", events, len(res.Steps))
	}
	if rel := (evCost - res.Cost) / res.Cost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("Σ event cost %v vs Cost %v", evCost, res.Cost)
	}
}

// TestRunObservedProfile: with a profile attached, every superstep's
// charges fold under dbsp;label.<l>;<phase>, each phase's stacks add up
// to its dbsp.cost.<phase> counter, and all stacks to Result.Cost.
func TestRunObservedProfile(t *testing.T) {
	prog := pairProg(16)
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	prof := obs.NewProfile()
	o.Prof = prof

	res, _, err := RunObserved(prog, cost.Log{}, o)
	if err != nil {
		t.Fatal(err)
	}
	byPhase := make(map[string]float64)
	var total float64
	for _, sc := range prof.Folded() {
		frames := strings.Split(sc.Stack, ";")
		if len(frames) != 3 || frames[0] != "dbsp" || !strings.HasPrefix(frames[1], "label.") {
			t.Fatalf("unexpected stack %q", sc.Stack)
		}
		byPhase[frames[2]] += sc.Cost
		total += sc.Cost
	}
	phases := phaseCosts(reg)
	for ph := range byPhase {
		if _, ok := phases[ph]; !ok {
			t.Errorf("profile phase %s has no dbsp.cost.%s counter", ph, ph)
		}
	}
	for ph, want := range phases {
		if got := byPhase[ph]; got-want > 1e-9*res.Cost || want-got > 1e-9*res.Cost {
			t.Errorf("profile %s = %v, counter = %v", ph, got, want)
		}
	}
	if rel := (total - res.Cost) / res.Cost; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("profile total %v vs Cost %v", total, res.Cost)
	}
}

// TestRunObservedNilObserver: RunTraced must stay byte-identical to the
// unobserved path (RunObserved with a nil observer).
func TestRunObservedNilObserver(t *testing.T) {
	prog := pairProg(8)
	res, tr, err := RunObserved(prog, cost.Log{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != plain.Cost {
		t.Errorf("cost %v vs %v", res.Cost, plain.Cost)
	}
	if tr.Messages() == 0 {
		t.Error("trace not recorded")
	}
}

// phaseCosts returns every top-level dbsp.cost.<phase> counter the
// registry holds — what the run registered and charged, not a declared
// list — keyed by phase.
func phaseCosts(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		if ph, ok := strings.CutPrefix(s.Name, "dbsp.cost."); ok && ph != "total" && !strings.Contains(ph, ".") {
			out[ph] = s.Value
		}
	}
	return out
}
