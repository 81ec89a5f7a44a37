package obs

import (
	"slices"
	"testing"
)

// registered returns the registered metric names in snapshot order.
func registered(r *Registry) []string {
	var out []string
	for _, s := range r.Snapshot() {
		out = append(out, s.Name)
	}
	return out
}

// TestLedgerChargesCounterAndStack: one Charge adds the same delta to
// <sim>.cost.<phase> and to the folded stack <sim>;<frame>;<phase>.
func TestLedgerChargesCounterAndStack(t *testing.T) {
	reg := NewRegistry()
	o := New(reg, nil)
	prof := NewProfile()
	o.Prof = prof.Scope("job")
	l := o.Ledger("sim", "compute")

	l.Charge(LabelFrame(2), "compute", 1.5)
	l.Charge(LabelFrame(2), "compute", 0.25)
	l.Charge(LabelFrame(0), "swap", 4)
	l.Total(5.75)

	for name, want := range map[string]float64{
		"sim.cost.compute": 1.75, "sim.cost.swap": 4, "sim.cost.total": 5.75,
	} {
		if got := reg.FloatCounter(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	want := []StackCost{
		{Stack: "job;sim;label.0;swap", Cost: 4},
		{Stack: "job;sim;label.2;compute", Cost: 1.75},
	}
	got := prof.Folded()
	if len(got) != len(want) {
		t.Fatalf("Folded() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Folded()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLedgerSubPhasesAndZeroDeltas: a dotted sub-phase overlaps its
// parent's window, so it reaches the counter but never the profile;
// a zero delta registers its counter but leaves no stack.
func TestLedgerSubPhasesAndZeroDeltas(t *testing.T) {
	reg := NewRegistry()
	o := New(reg, nil)
	prof := NewProfile()
	o.Prof = prof
	l := o.Ledger("bt")

	l.Charge("init", "deliver", 3)
	l.Charge("init", "deliver.sort", 2)
	l.Charge("init", "swap", 0)

	if got := reg.FloatCounter("bt.cost.deliver.sort").Value(); got != 2 {
		t.Errorf("bt.cost.deliver.sort = %v, want 2", got)
	}
	got := prof.Folded()
	if len(got) != 1 || got[0] != (StackCost{Stack: "bt;init;deliver", Cost: 3}) {
		t.Errorf("Folded() = %v, want only bt;init;deliver 3", got)
	}
	want := []string{"bt.cost.deliver", "bt.cost.deliver.sort", "bt.cost.swap"}
	if got := registered(reg); !slices.Equal(got, want) {
		t.Errorf("registered %v, want %v", got, want)
	}
}

// TestLedgerRegistration: the phases a ledger names report before any
// charge; any other phase appears at its first charge.
func TestLedgerRegistration(t *testing.T) {
	reg := NewRegistry()
	l := New(reg, nil).Ledger("hmm", "compute", "swap")
	want := []string{"hmm.cost.compute", "hmm.cost.swap"}
	if got := registered(reg); !slices.Equal(got, want) {
		t.Fatalf("registered before any charge: %v, want %v", got, want)
	}
	l.Charge(LabelFrame(1), "deliver", 1)
	want = []string{"hmm.cost.compute", "hmm.cost.deliver", "hmm.cost.swap"}
	if got := registered(reg); !slices.Equal(got, want) {
		t.Errorf("registered after charging deliver: %v, want %v", got, want)
	}
}

// TestLedgerNil: a nil observer yields a nil ledger whose methods do
// nothing.
func TestLedgerNil(t *testing.T) {
	var o *Observer
	l := o.Ledger("hmm", "compute")
	if l != nil {
		t.Fatalf("nil observer returned ledger %v", l)
	}
	l.Charge(LabelFrame(0), "compute", 1)
	l.Total(1)
}
