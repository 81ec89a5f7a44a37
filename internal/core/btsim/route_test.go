package btsim

import (
	"reflect"
	"testing"

	"repro/internal/algos"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
	"repro/internal/workload"
)

// transposeProg builds a program whose only communication is one
// declared m1×m2 transpose per cluster, plus a closing consume step.
func transposeProg(v, m1, m2 int) *dbsp.Program {
	label := dbsp.Log2(v) - dbsp.Log2(m1*m2)
	return &dbsp.Program{
		Name:   "transpose",
		V:      v,
		Layout: dbsp.Layout{Data: 2, MaxMsgs: 1},
		Init:   func(p int, data []dbsp.Word) { data[0] = dbsp.Word(100 + p) },
		Steps: []dbsp.Superstep{
			{
				Label:     label,
				Transpose: &dbsp.TransposeRoute{M1: m1, M2: m2},
				Run: func(c *dbsp.Ctx) {
					bs := m1 * m2
					lo := (c.ID() / bs) * bs
					rel := c.ID() - lo
					j1, j2 := rel/m2, rel%m2
					c.Send(lo+j2*m1+j1, c.Load(0))
				},
			},
			{Label: 0, Run: func(c *dbsp.Ctx) {
				src, payload := c.Recv(0)
				c.Store(1, payload*1000+dbsp.Word(src))
			}},
		},
	}
}

func TestRouteDeliveryMatchesNative(t *testing.T) {
	for _, tc := range []struct{ v, m1, m2 int }{
		{64, 8, 8}, {64, 4, 16}, {64, 16, 4}, {64, 1, 64}, {64, 64, 1},
		{256, 16, 16}, {128, 8, 16},
	} {
		prog := transposeProg(tc.v, tc.m1, tc.m2)
		res, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{CheckInvariants: true})
		if err != nil {
			t.Fatalf("v=%d %dx%d: %v", tc.v, tc.m1, tc.m2, err)
		}
		assertSameContexts(t, prog, res.Contexts)
	}
}

func TestRouteDeliveryBlockwiseUnderSmoothing(t *testing.T) {
	// Transpose declared on sub-clusters much finer than the label set's
	// bundling: the route must act blockwise.
	prog := transposeProg(256, 4, 4) // label 4 sub-clusters of 16
	res, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	assertSameContexts(t, prog, res.Contexts)
}

func TestRouteDeliveryDFTRecursive(t *testing.T) {
	// The real consumer: every transpose of the recursive DFT schedule
	// is declared; results must stay bit-identical with and without
	// route delivery.
	for _, n := range []int{64, 256} {
		prog := algos.DFTRecursive(n, workload.KeyFunc(61, n, 1<<20))
		routed, err := Simulate(prog, cost.Poly{Alpha: 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{DisableRouteDelivery: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(routed.Contexts, sorted.Contexts) {
			t.Fatalf("n=%d: route and sort deliveries disagree", n)
		}
		assertSameContexts(t, prog, routed.Contexts)
	}
}

// The Section 6 claim: route delivery makes the simulation cheaper than
// sorting delivery on transpose-heavy programs.
func TestRouteDeliveryCheaper(t *testing.T) {
	for _, n := range []int{256, 1024} {
		prog := algos.DFTRecursive(n, workload.KeyFunc(62, n, 1<<20))
		routed, err := Simulate(prog, cost.Poly{Alpha: 0.5}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sorted, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{DisableRouteDelivery: true})
		if err != nil {
			t.Fatal(err)
		}
		if routed.HostCost >= sorted.HostCost {
			t.Errorf("n=%d: routed (%g) not cheaper than sorted (%g)", n, routed.HostCost, sorted.HostCost)
		}
	}
}

func TestNativeVerifiesTransposeDeclaration(t *testing.T) {
	// A lying declaration must be rejected by the dbsp engine.
	prog := transposeProg(64, 8, 8)
	prog.Steps[0].Transpose = &dbsp.TransposeRoute{M1: 4, M2: 16} // wrong shape
	if _, err := dbsp.Run(prog, cost.Log{}); err == nil {
		t.Fatal("dbsp engine accepted a wrong transpose declaration")
	}
	// A declaration whose size does not match any tiling is also rejected.
	prog2 := transposeProg(64, 8, 8)
	prog2.Steps[0].Transpose = &dbsp.TransposeRoute{M1: 8, M2: 4}
	if _, err := dbsp.Run(prog2, cost.Log{}); err == nil {
		t.Fatal("dbsp engine accepted a mis-sized transpose declaration")
	}
}

func TestTransposeRouteDest(t *testing.T) {
	tr := &dbsp.TransposeRoute{M1: 2, M2: 4}
	// j = j1*4 + j2 -> j2*2 + j1
	want := map[int]int{0: 0, 1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7}
	for j, d := range want {
		if got := tr.Dest(j); got != d {
			t.Errorf("Dest(%d) = %d, want %d", j, got, d)
		}
	}
}

func TestDirectDeliveryThresholdOption(t *testing.T) {
	prog := progtest.Rotate(64, progtest.Fine(64, 6)...)
	def, err := Simulate(prog, cost.Poly{Alpha: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	off, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{DirectDeliveryMaxBlocks: -1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Simulate(prog, cost.Poly{Alpha: 0.5}, &Options{DirectDeliveryMaxBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Contexts, off.Contexts) || !reflect.DeepEqual(def.Contexts, big.Contexts) {
		t.Fatal("threshold option changed results")
	}
	if off.HostCost <= def.HostCost {
		t.Errorf("disabling direct delivery should cost more: %g vs %g", off.HostCost, def.HostCost)
	}
}
