// Package core is the facade over the paper's three simulation schemes
// — the primary contribution of Fantozzi, Pietracaprina and Pucci,
// "Translating Submachine Locality into Locality of Reference":
//
//   - OnHMM: D-BSP(v, µ, g) → f(x)-HMM (Section 3, Theorem 5): optimal
//     Θ(v) slowdown when g = f (Corollary 6), turning submachine
//     locality into temporal locality of reference.
//   - OnBT: D-BSP(v, µ, g) → f(x)-BT (Section 5, Theorem 12): cost
//     independent of the access function, turning submachine locality
//     into combined temporal and spatial locality.
//   - OnDBSP: D-BSP(v, µ, g) → D-BSP(v′, µ·v/v′, g) with HMM processor
//     memories (Section 4, Theorem 10): the Brent-lemma analogue with
//     optimal Θ(v/v′) slowdown.
//
// Programs are written against internal/dbsp (supersteps, cluster
// labels, message-passing contexts) and can be executed natively on
// the sharded engine (dbsp.Run, or dbsp.RunSharded at an explicit
// shard count), or passed to any of the simulators below; final
// processor contexts are bit-identical across the engine at every
// shard count and all three simulators.
package core

import (
	"repro/internal/core/btsim"
	"repro/internal/core/hmmsim"
	"repro/internal/core/selfsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
)

// OnHMM simulates prog on an f(x)-HMM host (Section 3, Theorem 5).
func OnHMM(prog *dbsp.Program, f cost.Func) (*hmmsim.Result, error) {
	return hmmsim.Simulate(prog, f, nil)
}

// OnBT simulates prog on an f(x)-BT host (Section 5, Theorem 12).
func OnBT(prog *dbsp.Program, f cost.Func) (*btsim.Result, error) {
	return btsim.Simulate(prog, f, nil)
}

// OnDBSP simulates prog on a smaller D-BSP(vPrime, µ·v/vPrime, g) whose
// processors are g(x)-HMMs (Section 4, Theorem 10).
func OnDBSP(prog *dbsp.Program, g cost.Func, vPrime int) (*selfsim.Result, error) {
	return selfsim.Simulate(prog, g, vPrime, nil)
}
