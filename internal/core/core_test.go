package core

import (
	"reflect"
	"testing"

	"repro/internal/algos"
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
