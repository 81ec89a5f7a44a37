package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algos"
	"repro/internal/core/btsim"
	"repro/internal/core/hmmsim"
	"repro/internal/core/selfsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/workload"
)

// The central integration property of the repository: for every
// case-study algorithm, every execution path — the D-BSP engine at one
// shard and at three (which must also agree on every per-step τ, h and
// charged cost), the HMM simulation, the BT simulation and the D-BSP
// self-simulation — produces bit-identical final processor contexts.
func TestAllPathsAgree(t *testing.T) {
	mat := workload.Matrix(1, 4, 8)
	matB := workload.Matrix(2, 4, 8)
	progs := []*dbsp.Program{
		algos.Broadcast(16, 99),
		algos.PrefixSums(16, func(p int) int64 { return int64(3*p - 10) }),
		algos.MatMul(16, mat, matB),
		algos.DFTButterfly(16, workload.KeyFunc(3, 16, 1<<20)),
		algos.DFTRecursive(16, workload.KeyFunc(4, 16, 1<<20)),
		algos.Sort(16, workload.KeyFunc(5, 16, 1000)),
		algos.Permute(16, workload.Permutation(6, 16), func(p int) int64 { return int64(p) }),
		algos.Reduce(16, algos.OpMax, func(p int) int64 { return int64(p * 7 % 13) }),
		algos.MatVec(16, func(r, c int) int64 { return int64(r*c + 1) }, func(c int) int64 { return int64(c + 2) }),
		algos.Stencil1D(16, 2, func(p int) int64 { return int64(p * 8) }),
		algos.Convolution(16, func(p int) int64 { return int64(p + 1) }, func(p int) int64 { return int64(p % 3) }),
	}
	f := cost.Poly{Alpha: 0.5}
	for _, prog := range progs {
		ref, err := dbsp.RunSharded(prog, f, 1)
		if err != nil {
			t.Fatalf("%s one shard: %v", prog.Name, err)
		}
		sh, err := dbsp.RunSharded(prog, f, 3)
		if err != nil {
			t.Fatalf("%s sharded: %v", prog.Name, err)
		}
		requireShardedAgrees(t, prog.Name, 3, ref, sh)
		h, err := OnHMM(prog, f)
		if err != nil {
			t.Fatalf("%s hmm: %v", prog.Name, err)
		}
		b, err := OnBT(prog, f)
		if err != nil {
			t.Fatalf("%s bt: %v", prog.Name, err)
		}
		s, err := OnDBSP(prog, f, 4)
		if err != nil {
			t.Fatalf("%s selfsim: %v", prog.Name, err)
		}
		for p := range ref.Contexts {
			if !reflect.DeepEqual(ref.Contexts[p], h.Contexts[p]) {
				t.Fatalf("%s: HMM simulation diverged at proc %d", prog.Name, p)
			}
			if !reflect.DeepEqual(ref.Contexts[p], b.Contexts[p]) {
				t.Fatalf("%s: BT simulation diverged at proc %d", prog.Name, p)
			}
			if !reflect.DeepEqual(ref.Contexts[p], s.Contexts[p]) {
				t.Fatalf("%s: self-simulation diverged at proc %d", prog.Name, p)
			}
		}
	}
}

func TestFacadeErrorsPropagate(t *testing.T) {
	bad := &dbsp.Program{Name: "bad", V: 8, Layout: dbsp.Layout{Data: 1}}
	if _, err := OnHMM(bad, cost.Log{}); err == nil {
		t.Error("OnHMM accepted an empty program")
	}
	if _, err := OnBT(bad, cost.Log{}); err == nil {
		t.Error("OnBT accepted an empty program")
	}
	if _, err := OnDBSP(bad, cost.Log{}, 2); err == nil {
		t.Error("OnDBSP accepted an empty program")
	}
}

// TestHandlerPanicIsError holds the engine and every simulator to one
// failure mode: a handler that breaks the model makes the run return an
// error naming the input program, the engine's superstep and the
// processor, never panic out of the caller. The first case is a label-2
// superstep sending across its 2-cluster boundary at v = 8; selfsim runs
// it as a global step at v′ = 8 and inside a local run at v′ = 2. In
// the others a handler panics past superstep 0, where the smoothed
// program the scheduled simulators run has dummy steps the input lacks
// (labels 0, 6, 0, 6, 0 at v = 64) and selfsim's local runs start
// mid-program (labels 0, 2, 2, 0 at v′ = 2; labels 6 at v′ = 4).
func TestHandlerPanicIsError(t *testing.T) {
	// panicAt builds program "idx" with the given labels, whose
	// superstep step panics at processor proc.
	panicAt := func(v, step, proc int, labels ...int) *dbsp.Program {
		prog := &dbsp.Program{Name: "idx", V: v, Layout: dbsp.Layout{Data: 1}}
		for i, l := range labels {
			prog.Steps = append(prog.Steps, dbsp.Superstep{Label: l, Run: func(c *dbsp.Ctx) {
				if i == step && c.ID() == proc {
					panic("boom")
				}
				c.Store(0, c.Load(0)+1)
			}})
		}
		return prog
	}
	f := cost.Poly{Alpha: 0.5}
	cases := []struct {
		prog     *dbsp.Program
		vPrimes  [2]int // selfsim hosts: the step runs global, then local (or local twice)
		contains string
	}{
		{&dbsp.Program{
			Name:   "cross-cluster",
			V:      8,
			Layout: dbsp.Layout{Data: 1, MaxMsgs: 1},
			Steps: []dbsp.Superstep{
				{Label: 2, Run: func(c *dbsp.Ctx) { c.Send((c.ID()+4)%8, 1) }},
				{Label: 0, Run: func(c *dbsp.Ctx) {}},
			},
		}, [2]int{8, 2}, `program "cross-cluster" superstep 0: processor 0: handler panic: dbsp: proc 0: Send to 4 crosses`},
		{panicAt(64, 3, 5, 0, 6, 0, 6, 0), [2]int{1, 4}, `program "idx" superstep 3: processor 5: handler panic: boom`},
		{panicAt(8, 2, 5, 0, 2, 2, 0), [2]int{8, 2}, `program "idx" superstep 2: processor 5: handler panic: boom`},
	}
	for _, tc := range cases {
		prog := tc.prog
		runs := []struct {
			name string
			run  func() error
		}{
			{"dbsp.Run", func() error { _, err := dbsp.Run(prog, f); return err }},
			{"hmmsim.Simulate", func() error { _, err := hmmsim.Simulate(prog, f, nil); return err }},
			{"hmmsim.SimulateNaive", func() error { _, err := hmmsim.SimulateNaive(prog, f); return err }},
			{"btsim.Simulate", func() error { _, err := btsim.Simulate(prog, f, nil); return err }},
			{"btsim.SimulateNaive", func() error { _, err := btsim.SimulateNaive(prog, f); return err }},
			{fmt.Sprintf("selfsim.Simulate v'=%d", tc.vPrimes[0]),
				func() error { _, err := selfsim.Simulate(prog, f, tc.vPrimes[0], nil); return err }},
			{fmt.Sprintf("selfsim.Simulate v'=%d", tc.vPrimes[1]),
				func() error { _, err := selfsim.Simulate(prog, f, tc.vPrimes[1], nil); return err }},
		}
		for _, r := range runs {
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on %s panicked: %v", r.name, prog.Name, p)
					}
				}()
				err = r.run()
			}()
			if err == nil || !strings.Contains(err.Error(), tc.contains) {
				t.Errorf("%s: error %v, want one containing %q", r.name, err, tc.contains)
			}
		}
	}
}

// TestInboxOverflowIsError holds the engine and every simulator to one
// overflow report. Under MaxMsgs = 2, a label-0 superstep sends three
// messages to one processor; every path must return an error naming
// the superstep, the processor and MaxMsgs, never write past the inbox
// or panic. When two inboxes overflow, the report names the one whose
// overflowing message comes first in ascending (sender, entry) order,
// as in the engine, not the lower processor. v = 8 delivers word by
// word (hmmsim; btsim's direct delivery), v = 64 through btsim's
// sorting delivery. selfsim runs the step as a global step at v′ = 4
// and inside a local run (hmmsim's delivery) at v′ = 1.
func TestInboxOverflowIsError(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	cases := []struct {
		name string
		dest func(id int) int // -1: no message
		want int              // the processor the report names
	}{
		{"three to 0", func(id int) int {
			if id < 3 {
				return 0
			}
			return -1
		}, 0},
		// Senders 0–2 fill processor 5 first; 3, 4 and 6 overflow 1 later.
		{"5 before 1", func(id int) int {
			switch id {
			case 0, 1, 2:
				return 5
			case 3, 4, 6:
				return 1
			}
			return -1
		}, 5},
	}
	for _, v := range []int{8, 64} {
		for _, tc := range cases {
			dest := tc.dest
			prog := &dbsp.Program{
				Name:   "overflow",
				V:      v,
				Layout: dbsp.Layout{Data: 1, MaxMsgs: 2},
				Steps: []dbsp.Superstep{{Label: 0, Run: func(c *dbsp.Ctx) {
					if d := dest(c.ID()); d >= 0 {
						c.Send(d, int64(c.ID()))
					}
				}}},
			}
			runs := []struct {
				name string
				run  func() error
			}{
				{"dbsp.Run", func() error { _, err := dbsp.Run(prog, f); return err }},
				{"hmmsim.Simulate", func() error { _, err := hmmsim.Simulate(prog, f, nil); return err }},
				{"hmmsim.SimulateNaive", func() error { _, err := hmmsim.SimulateNaive(prog, f); return err }},
				{"btsim.Simulate", func() error { _, err := btsim.Simulate(prog, f, nil); return err }},
				{"btsim.SimulateNaive", func() error { _, err := btsim.SimulateNaive(prog, f); return err }},
				{"selfsim.Simulate v'=4", func() error { _, err := selfsim.Simulate(prog, f, 4, nil); return err }},
				{"selfsim.Simulate v'=1", func() error { _, err := selfsim.Simulate(prog, f, 1, nil); return err }},
			}
			want := fmt.Sprintf("superstep 0: inbox overflow at processor %d (MaxMsgs=2)", tc.want)
			for _, r := range runs {
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("v=%d %s: %s panicked: %v", v, tc.name, r.name, p)
						}
					}()
					err = r.run()
				}()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("v=%d %s: %s: error %v, want one containing %q", v, tc.name, r.name, err, want)
				}
			}
		}
	}
}
