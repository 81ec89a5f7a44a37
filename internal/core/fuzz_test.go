package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
)

// requireShardedAgrees asserts the engine at shards reproduced the
// one-shard reference run bit for bit: contexts word by word, per-step
// labels, τ and h-relations, and every charged float64 compared by
// Float64bits.
func requireShardedAgrees(t *testing.T, name string, shards int, ref, sharded *dbsp.Result) {
	t.Helper()
	if len(ref.Steps) != len(sharded.Steps) {
		t.Fatalf("%s shards=%d: step counts %d vs %d", name, shards, len(ref.Steps), len(sharded.Steps))
	}
	for i := range ref.Steps {
		r, s := ref.Steps[i], sharded.Steps[i]
		if r.Label != s.Label || r.Tau != s.Tau || r.H != s.H ||
			math.Float64bits(r.Cost) != math.Float64bits(s.Cost) {
			t.Fatalf("%s shards=%d step %d: one shard %+v, sharded %+v", name, shards, i, r, s)
		}
	}
	if math.Float64bits(ref.Cost) != math.Float64bits(sharded.Cost) || ref.MaxTau != sharded.MaxTau {
		t.Fatalf("%s shards=%d: total cost/MaxTau diverged: one shard (%x, %d), sharded (%x, %d)",
			name, shards, math.Float64bits(ref.Cost), ref.MaxTau,
			math.Float64bits(sharded.Cost), sharded.MaxTau)
	}
	for p := range ref.Contexts {
		if !reflect.DeepEqual(ref.Contexts[p], sharded.Contexts[p]) {
			t.Fatalf("%s shards=%d: engine diverged from the one-shard run at proc %d", name, shards, p)
		}
	}
}

// The randomized equivalence sweep: pseudo-random programs with
// arbitrary label structures and bounded-fan-in random communication
// must produce bit-identical final contexts on the engine at one shard
// and at a varying shard count and on all three simulators, across
// machine sizes, step counts, shard counts and access functions.
func TestRandomProgramEquivalence(t *testing.T) {
	funcs := []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}}
	var cases int
	for _, v := range []int{4, 16, 32} {
		for _, steps := range []int{1, 4, 9} {
			for seed := uint64(1); seed <= 4; seed++ {
				prog := progtest.RandomProgram(progtest.RandomSpec{
					V: v, Steps: steps, MaxMsgs: 1, Seed: seed,
				})
				ref, err := dbsp.RunSharded(prog, cost.Const{C: 1}, 1)
				if err != nil {
					t.Fatalf("%s one shard: %v", prog.Name, err)
				}
				f := funcs[cases%len(funcs)]
				cases++

				shards := []int{1, 3, v, v + 7, 0}[cases%5]
				sh, err := dbsp.RunSharded(prog, cost.Const{C: 1}, shards)
				if err != nil {
					t.Fatalf("%s sharded(shards=%d): %v", prog.Name, shards, err)
				}
				requireShardedAgrees(t, prog.Name, shards, ref, sh)

				h, err := OnHMM(prog, f)
				if err != nil {
					t.Fatalf("%s hmm(%s): %v", prog.Name, f.Name(), err)
				}
				b, err := OnBT(prog, f)
				if err != nil {
					t.Fatalf("%s bt(%s): %v", prog.Name, f.Name(), err)
				}
				vp := 1 << uint(cases%(dbsp.Log2(v)+1))
				s, err := OnDBSP(prog, f, vp)
				if err != nil {
					t.Fatalf("%s selfsim(v'=%d): %v", prog.Name, vp, err)
				}
				for p := range ref.Contexts {
					if !reflect.DeepEqual(ref.Contexts[p], h.Contexts[p]) {
						t.Fatalf("%s f=%s: HMM diverged at proc %d", prog.Name, f.Name(), p)
					}
					if !reflect.DeepEqual(ref.Contexts[p], b.Contexts[p]) {
						t.Fatalf("%s f=%s: BT diverged at proc %d", prog.Name, f.Name(), p)
					}
					if !reflect.DeepEqual(ref.Contexts[p], s.Contexts[p]) {
						t.Fatalf("%s f=%s v'=%d: selfsim diverged at proc %d", prog.Name, f.Name(), vp, p)
					}
				}
			}
		}
	}
	if cases < 30 {
		t.Fatalf("only %d fuzz cases ran", cases)
	}
}

// FuzzEnginesAgree is the differential fuzz target across every
// execution path: the fuzzer's bytes pick a machine size, step count,
// message bound, generator seed, access function, self-simulation
// target size and shard count; the derived random program must then
// produce bit-identical final contexts on the engine at one shard, the
// engine at the fuzzed shard count and every simulator — and the
// fuzzed shard count must additionally match the one-shard per-step
// costs and h-relations bit for bit (the simulators charge their own
// simulation costs, so only their contexts are compared). shardsRaw
// exercises shards=1, shards>v and the derived default (0). Any
// divergence — in memory contents, in a charged float64, or in which
// path rejects the program — is a bug in the exchange, the
// accumulation or a simulator's layout translation.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), uint64(1), uint8(0), uint8(1), uint8(1))
	f.Add(uint8(5), uint8(9), uint8(2), uint64(42), uint8(1), uint8(5), uint8(7))
	f.Add(uint8(0), uint8(0), uint8(3), uint64(7), uint8(2), uint8(0), uint8(0))
	f.Add(uint8(4), uint8(6), uint8(1), uint64(1<<40), uint8(1), uint8(2), uint8(39))
	f.Fuzz(func(t *testing.T, vRaw, stepsRaw, msgsRaw uint8, seed uint64, fRaw, vpRaw, shardsRaw uint8) {
		v := 1 << (vRaw % 6) // 1..32 processors
		steps := int(stepsRaw % 10)
		maxMsgs := 1 + int(msgsRaw%3)
		prog := progtest.RandomProgram(progtest.RandomSpec{
			V: v, Steps: steps, MaxMsgs: maxMsgs, Seed: seed,
		})
		af := []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}, cost.Const{C: 2}}[fRaw%3]
		ref, err := dbsp.RunSharded(prog, af, 1)
		if err != nil {
			t.Fatalf("%s one shard: %v", prog.Name, err)
		}
		shards := int(shardsRaw % 40) // 0 = engine default; covers 1 and shards > v
		sh, err := dbsp.RunSharded(prog, af, shards)
		if err != nil {
			t.Fatalf("%s sharded(shards=%d): %v", prog.Name, shards, err)
		}
		requireShardedAgrees(t, prog.Name, shards, ref, sh)
		h, err := OnHMM(prog, af)
		if err != nil {
			t.Fatalf("%s hmm(%s): %v", prog.Name, af.Name(), err)
		}
		b, err := OnBT(prog, af)
		if err != nil {
			t.Fatalf("%s bt(%s): %v", prog.Name, af.Name(), err)
		}
		vp := 1 << (int(vpRaw) % (dbsp.Log2(v) + 1))
		s, err := OnDBSP(prog, af, vp)
		if err != nil {
			t.Fatalf("%s selfsim(v'=%d): %v", prog.Name, vp, err)
		}
		for p := range ref.Contexts {
			if !reflect.DeepEqual(ref.Contexts[p], h.Contexts[p]) {
				t.Fatalf("%s f=%s: HMM diverged at proc %d", prog.Name, af.Name(), p)
			}
			if !reflect.DeepEqual(ref.Contexts[p], b.Contexts[p]) {
				t.Fatalf("%s f=%s: BT diverged at proc %d", prog.Name, af.Name(), p)
			}
			if !reflect.DeepEqual(ref.Contexts[p], s.Contexts[p]) {
				t.Fatalf("%s f=%s v'=%d: selfsim diverged at proc %d", prog.Name, af.Name(), vp, p)
			}
		}
	})
}

// Determinism of the generator itself: same spec, same program
// behaviour.
func TestRandomProgramDeterministic(t *testing.T) {
	spec := progtest.RandomSpec{V: 16, Steps: 5, MaxMsgs: 1, Seed: 9}
	a, err := dbsp.Run(progtest.RandomProgram(spec), cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dbsp.Run(progtest.RandomProgram(spec), cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Contexts, b.Contexts) {
		t.Fatal("RandomProgram not deterministic")
	}
}
