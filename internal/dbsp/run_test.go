package dbsp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cost"
)

// doubleProg: every processor doubles its data word; one 0-superstep.
func doubleProg(v int) *Program {
	return &Program{
		Name:   "double",
		V:      v,
		Layout: Layout{Data: 2, MaxMsgs: 1},
		Init:   func(p int, data []Word) { data[0] = Word(p) },
		Steps: []Superstep{{Label: 0, Run: func(c *Ctx) {
			c.Store(0, 2*c.Load(0))
		}}},
	}
}

func TestRunDouble(t *testing.T) {
	prog := doubleProg(8)
	res, err := Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if got := res.Contexts[p][0]; got != Word(2*p) {
			t.Errorf("proc %d data = %d, want %d", p, got, 2*p)
		}
	}
	// τ = 2 ops (one load, one store); no messages, so cost = τ.
	if len(res.Steps) != 1 || res.Steps[0].Tau != 2 || res.Steps[0].H != 0 {
		t.Errorf("step cost = %+v, want Tau=2 H=0", res.Steps[0])
	}
	if res.Cost != 2 || res.MaxTau != 2 {
		t.Errorf("Cost=%g MaxTau=%d, want 2, 2", res.Cost, res.MaxTau)
	}
}

// pairExchangeProg: neighbours within (log v - 1)-clusters swap values,
// then a closing 0-superstep.
func pairExchangeProg(v int) *Program {
	logv := Log2(v)
	return &Program{
		Name:   "pair-exchange",
		V:      v,
		Layout: Layout{Data: 2, MaxMsgs: 2},
		Init:   func(p int, data []Word) { data[0] = Word(p + 100) },
		Steps: []Superstep{
			{Label: logv - 1, Run: func(c *Ctx) {
				c.Send(c.ID()^1, c.Load(0))
			}},
			{Label: 0, Run: func(c *Ctx) {
				if c.NumRecv() != 1 {
					panic("expected exactly one message")
				}
				_, payload := c.Recv(0)
				c.Store(1, payload)
			}},
		},
	}
}

func TestRunPairExchange(t *testing.T) {
	prog := pairExchangeProg(8)
	res, err := Run(prog, cost.Poly{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if got := res.Contexts[p][1]; got != Word((p^1)+100) {
			t.Errorf("proc %d got %d, want %d", p, got, (p^1)+100)
		}
	}
	// Superstep 0 is a 1-relation in (log v -1)-clusters of 2 procs.
	if res.Steps[0].H != 1 {
		t.Errorf("h = %d, want 1", res.Steps[0].H)
	}
	mu := prog.Mu()
	wantComm := cost.Poly{Alpha: 0.5}.Cost(int64(2 * mu)) // g(µ·2)
	if got := res.Steps[0].Cost - float64(res.Steps[0].Tau); math.Abs(got-wantComm) > 1e-9 {
		t.Errorf("comm cost = %g, want g(2µ) = %g", got, wantComm)
	}
}

func TestRunRejectsCrossClusterSend(t *testing.T) {
	v := 8
	prog := &Program{
		Name:   "bad-send",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Steps: []Superstep{{Label: 2, Run: func(c *Ctx) {
			if c.ID() == 0 {
				c.Send(7, 1) // proc 7 is outside proc 0's 2-cluster {0,1}
			}
		}}},
	}
	if _, err := Run(prog, cost.Log{}); err == nil {
		t.Fatal("cross-cluster send not rejected")
	}
}

func TestRunRejectsInboxOverflow(t *testing.T) {
	prog := &Program{
		Name:   "overflow",
		V:      4,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Steps: []Superstep{{Label: 0, Run: func(c *Ctx) {
			if c.ID() != 0 {
				c.Send(0, 1) // three senders into capacity-1 inbox
			}
		}}},
	}
	if _, err := Run(prog, cost.Log{}); err == nil {
		t.Fatal("inbox overflow not rejected")
	}
}

func TestRunRejectsInvalidProgram(t *testing.T) {
	prog := &Program{Name: "bad-label", V: 4, Layout: Layout{Data: 1},
		Steps: []Superstep{{Label: 5}}}
	if _, err := Run(prog, cost.Log{}); err == nil {
		t.Fatal("label 5 on 4 processors not rejected")
	}
	if _, err := Run(doubleProg(8), nil); err == nil {
		t.Fatal("nil bandwidth function not rejected")
	}
}

func TestDummyStepsCostNothing(t *testing.T) {
	prog := doubleProg(4)
	prog.Steps = append([]Superstep{{Label: 1, Run: nil}}, prog.Steps...)
	res, err := Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].Cost != 0 || res.Steps[0].Tau != 0 {
		t.Errorf("dummy step cost = %+v, want zero", res.Steps[0])
	}
}

func TestDeliverOrdering(t *testing.T) {
	// Procs 1, 2, 3 all send to proc 0 in a 0-superstep; inbox must be
	// ordered by ascending sender.
	prog := &Program{
		Name:   "fan-in",
		V:      4,
		Layout: Layout{Data: 4, MaxMsgs: 4},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				if c.ID() != 0 {
					c.Send(0, Word(10*c.ID()))
				}
			}},
			{Label: 0, Run: func(c *Ctx) {
				if c.ID() == 0 {
					for k := 0; k < c.NumRecv(); k++ {
						src, payload := c.Recv(k)
						if src != k+1 || payload != Word(10*(k+1)) {
							panic("inbox not in ascending sender order")
						}
						c.Store(k, payload)
					}
				}
			}},
		},
	}
	res, err := Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].H != 3 {
		t.Errorf("fan-in h = %d, want 3 (proc 0 receives 3)", res.Steps[0].H)
	}
}

// treeSumProg computes the global sum by halving: in phase k (label k),
// the left half of each k-cluster receives from the right half.
func treeSumProg(v int) *Program {
	logv := Log2(v)
	steps := make([]Superstep, 0, logv+1)
	for k := logv - 1; k >= 0; k-- {
		half := v >> uint(k+1) // half-size of a k-cluster
		steps = append(steps, Superstep{Label: k, Run: func(c *Ctx) {
			lo, _ := ClusterRange(c.V(), c.Label(), ClusterIndex(c.V(), c.Label(), c.ID()))
			off := c.ID() - lo
			if off >= half {
				c.Send(lo+off-half, c.Load(0))
			}
		}})
		steps = append(steps, Superstep{Label: k, Run: func(c *Ctx) {
			if c.NumRecv() == 1 {
				_, payload := c.Recv(0)
				c.Store(0, c.Load(0)+payload)
			}
		}})
	}
	// Final global barrier.
	steps = append(steps, Superstep{Label: 0, Run: func(c *Ctx) {}})
	return &Program{
		Name:   "tree-sum",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Init:   func(p int, data []Word) { data[0] = Word(p + 1) },
		Steps:  steps,
	}
}

func TestTreeSum(t *testing.T) {
	v := 16
	res, err := Run(treeSumProg(v), cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	want := Word(v * (v + 1) / 2)
	if got := res.Contexts[0][0]; got != want {
		t.Errorf("tree sum = %d, want %d", got, want)
	}
}

func TestLambdaAndSmoothness(t *testing.T) {
	prog := treeSumProg(16)
	lam := prog.Lambda(true)
	// Two supersteps per label 3,2,1 plus the send at 0... labels go
	// 3,3,2,2,1,1,0,0 then final 0: λ = [3,2,2,2,... wait recount]
	// k runs 3..0 with two steps each: λ_3=2, λ_2=2, λ_1=2, λ_0=2+1=3.
	want := []int{3, 2, 2, 2, 0}
	for i, w := range want {
		if lam[i] != w {
			t.Errorf("λ_%d = %d, want %d (full: %v)", i, lam[i], w, lam)
		}
	}
	// Labels descend one at a time -> smooth over {0,1,2,3}.
	if !prog.IsSmooth([]int{0, 1, 2, 3}) {
		t.Error("tree-sum should be smooth over {0,1,2,3}")
	}
	if prog.IsSmooth([]int{0, 2, 3}) {
		t.Error("tree-sum uses label 1, cannot be {0,2,3}-smooth")
	}
}

func TestIsSmoothJumpDown(t *testing.T) {
	// Label sequence 3 then 0 skips levels 2,1: not smooth over {0,1,2,3}.
	prog := &Program{Name: "jump", V: 8, Layout: Layout{Data: 1},
		Steps: []Superstep{{Label: 3}, {Label: 0}}}
	if prog.IsSmooth([]int{0, 1, 2, 3}) {
		t.Error("3 -> 0 jump should not be smooth over {0,1,2,3}")
	}
	// But it IS smooth over L = {0, 3}: 3 -> 0 is one L-level.
	if !prog.IsSmooth([]int{0, 3}) {
		t.Error("3 -> 0 should be smooth over {0,3}")
	}
}

func TestEndsGlobal(t *testing.T) {
	if !doubleProg(4).EndsGlobal() {
		t.Error("double ends with a 0-superstep")
	}
	prog := &Program{V: 4, Layout: Layout{Data: 1}, Steps: []Superstep{{Label: 1}}}
	if prog.EndsGlobal() {
		t.Error("label-1 ending reported as global")
	}
	if (&Program{V: 4, Layout: Layout{Data: 1}}).EndsGlobal() {
		t.Error("empty program reported as ending globally")
	}
}

func TestLabelsSet(t *testing.T) {
	prog := treeSumProg(16)
	got := prog.Labels()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v", got, want)
		}
	}
}

// Property: tree-sum is correct for every power-of-two machine size.
func TestTreeSumProperty(t *testing.T) {
	prop := func(raw uint8) bool {
		v := 1 << (raw % 8) // 1..128
		res, err := Run(treeSumProg(v), cost.Log{})
		if err != nil {
			return false
		}
		return res.Contexts[0][0] == Word(v*(v+1)/2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOutboxOverflowRejected(t *testing.T) {
	prog := &Program{
		Name: "outbox-overflow", V: 4, Layout: Layout{Data: 1, MaxMsgs: 1},
		Steps: []Superstep{{Label: 0, Run: func(c *Ctx) {
			c.Send(0, 1)
			c.Send(0, 2)
		}}},
	}
	if _, err := Run(prog, cost.Log{}); err == nil {
		t.Fatal("outbox overflow not rejected")
	}
}

func TestTotalTauAndCommCost(t *testing.T) {
	res, err := Run(pairExchangeProg(8), cost.Const{C: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTau() <= 0 {
		t.Error("TotalTau should be positive")
	}
	// One 1-relation at g=3 in step 0; step 1 has no sends.
	if math.Abs(res.CommCost()-3) > 1e-9 {
		t.Errorf("CommCost = %g, want 3", res.CommCost())
	}
}
