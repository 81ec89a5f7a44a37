package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
	"repro/internal/sweep"
)

// E20BigV is the engine's scale demonstration: the engine the
// ROADMAP's "millions of processors" item asks for. It runs a rotate
// program at v up to 2^20 under dbsp.RunSharded with fixed shard
// counts (never the GOMAXPROCS-derived default — cells must not depend
// on the host), and on the v range where a reference dbsp.Run (the
// default shard count) also runs it checks every charged float64 and
// every context word for bit-identity. Shard counts are a pure
// execution detail, so the cost column is constant down each v block —
// that invariance is the experiment's claim.
//
// The builder deliberately uses the un-traced RunSharded: a traced run
// materialises every routed message, which at v = 2^20 is tens of
// millions of MessageTrace records per superstep sweep.
func E20BigV(p sweep.Params) *Table {
	vs := []int{1 << 14, 1 << 17, 1 << 20}
	refCap := 1 << 17 // dbsp.Run comparison range; above it, fixed counts only
	if p.Quick {
		vs = []int{1 << 10, 1 << 14}
		refCap = 1 << 14
	}
	shardCounts := []int{1, 8, 64}
	t := &Table{
		ID:    "E20",
		Title: "Sharded engine at big v (2^20 processors)",
		Claim: "a D-BSP(v, µ, g) computation with submachine locality can be " +
			"executed by far fewer physical processors than v; the sharded " +
			"engine multiplexes v contexts over a handful of shards with " +
			"bit-identical charged costs",
		Columns: []string{"v", "shards", "supersteps", "T (total cost)", "max h", "vs dbsp.Run"},
		Notes: "Shape holds when the cost column is constant within each v " +
			"block (shard count is an execution detail, not a model " +
			"parameter) and every row up to 2^17 reads `identical` — " +
			"contexts, per-step costs and totals compared bit for bit " +
			"with dbsp.Run, the engine at its default shard count.",
	}
	f := cost.Poly{Alpha: 0.5}
	for _, v := range vs {
		logv := dbsp.Log2(v)
		labels := []int{logv - 1, logv / 2, 0}
		var ref *dbsp.Result
		if v <= refCap {
			res, err := dbsp.Run(progtest.Rotate(v, labels...), f)
			must(err)
			ref = res
		}
		for _, shards := range shardCounts {
			res, err := dbsp.RunSharded(progtest.Rotate(v, labels...), f, shards)
			must(err)
			maxH := 0
			for _, sc := range res.Steps {
				maxH = max(maxH, sc.H)
			}
			vsRef := "-"
			if ref != nil {
				vsRef = "identical"
				if math.Float64bits(ref.Cost) != math.Float64bits(res.Cost) ||
					len(ref.Steps) != len(res.Steps) {
					vsRef = "DIVERGED"
				} else {
					for i := range ref.Steps {
						if ref.Steps[i].Tau != res.Steps[i].Tau ||
							ref.Steps[i].H != res.Steps[i].H ||
							math.Float64bits(ref.Steps[i].Cost) != math.Float64bits(res.Steps[i].Cost) {
							vsRef = "DIVERGED"
							break
						}
					}
				}
				if vsRef == "identical" && !slices.EqualFunc(ref.Contexts, res.Contexts, slices.Equal) {
					vsRef = "DIVERGED"
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("2^%d", logv), fmt.Sprint(shards),
				fmt.Sprint(len(res.Steps)), g(res.Cost), fmt.Sprint(maxH), vsRef,
			})
		}
	}
	return t
}
