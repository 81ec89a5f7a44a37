package core

import (
	"testing"

	"repro/internal/core/btsim"
	"repro/internal/core/hmmsim"
	"repro/internal/core/selfsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
)

// TestSimulatorAllocsIndependentOfSteps pins that no simulator
// allocates per handler call or per superstep: at v = 64, each runs a
// program of 2 and one of 40 fine supersteps with exactly as many
// allocations. A Ctx allocated per handler call would add 64·38
// objects. ComputeOnly exercises every handler loop: hmmsim's scheduler
// and naive baseline, btsim's COMPUTE recursion (scheduled and naive)
// and selfsim's global steps (v′ = v) and local runs (v′ = 4). Rotate
// adds message delivery on every path but btsim's naive baseline, whose
// full-machine sorting delivery plans each superstep afresh.
func TestSimulatorAllocsIndependentOfSteps(t *testing.T) {
	const v = 64
	f := cost.Poly{Alpha: 0.5}
	sims := []struct {
		name   string
		rotate bool
		run    func(*dbsp.Program) error
	}{
		{"hmmsim", true, func(p *dbsp.Program) error { _, err := hmmsim.Simulate(p, f, nil); return err }},
		{"hmmsim naive", true, func(p *dbsp.Program) error { _, err := hmmsim.SimulateNaive(p, f); return err }},
		{"btsim", true, func(p *dbsp.Program) error { _, err := btsim.Simulate(p, f, nil); return err }},
		{"btsim naive", false, func(p *dbsp.Program) error { _, err := btsim.SimulateNaive(p, f); return err }},
		{"selfsim v'=64", true, func(p *dbsp.Program) error { _, err := selfsim.Simulate(p, f, v, nil); return err }},
		{"selfsim v'=4", true, func(p *dbsp.Program) error { _, err := selfsim.Simulate(p, f, 4, nil); return err }},
	}
	progs := []struct {
		name string
		make func(steps int) *dbsp.Program
	}{
		{"compute", func(n int) *dbsp.Program { return progtest.ComputeOnly(v, 3, progtest.Fine(v, n)...) }},
		{"rotate", func(n int) *dbsp.Program { return progtest.Rotate(v, progtest.Fine(v, n)...) }},
	}
	for _, s := range sims {
		for _, p := range progs {
			if p.name == "rotate" && !s.rotate {
				continue
			}
			allocs := func(steps int) float64 {
				prog := p.make(steps)
				return testing.AllocsPerRun(3, func() {
					if err := s.run(prog); err != nil {
						t.Fatal(err)
					}
				})
			}
			if few, many := allocs(2), allocs(40); few != many {
				t.Errorf("%s on %s: %v allocations at 40 supersteps but %v at 2: allocation grows with the superstep count",
					s.name, p.name, many, few)
			}
		}
	}
}
