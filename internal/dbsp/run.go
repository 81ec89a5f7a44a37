package dbsp

import (
	"fmt"

	"repro/internal/cost"
)

// StepCost records the D-BSP cost of one executed superstep:
// τ + h·g(µ·v/2^i) (paper Section 2).
type StepCost struct {
	// Label is the superstep's cluster label i.
	Label int
	// Tau is the maximum local computation time over processors.
	Tau int64
	// H is the degree of the communication h-relation: the maximum
	// over processors of messages sent or received.
	H int
	// Cost is Tau + H·g(µ·v/2^Label).
	Cost float64
}

// Result is the outcome of a D-BSP run.
type Result struct {
	// Cost is the total D-BSP time T: the sum of superstep costs.
	Cost float64
	// Steps holds the per-superstep breakdown.
	Steps []StepCost
	// Contexts holds the final µ-word context of every processor.
	Contexts [][]Word
	// MaxTau is the maximum single-superstep local computation time, the
	// τ of Theorem 5's statement ("each processor performs local
	// computation for O(τ) time" per superstep).
	MaxTau int64
}

// TotalTau returns Σ_s τ_s, the aggregate local computation term.
func (r *Result) TotalTau() int64 {
	var t int64
	for _, s := range r.Steps {
		t += s.Tau
	}
	return t
}

// CommCost returns Σ_s h_s·g_s, the aggregate communication term.
func (r *Result) CommCost() float64 {
	var c float64
	for _, s := range r.Steps {
		c += s.Cost - float64(s.Tau)
	}
	return c
}

// NewContexts allocates and initialises the contexts of prog: v blocks
// of µ zeroed words with Init applied to each data region, all carved
// from one flat backing slice. The sequential simulators start from
// this state; the engine uses the per-shard variant NewContextsSharded
// over the same chunked allocator, so initial states coincide word for
// word.
func NewContexts(prog *Program) [][]Word {
	return newContextsChunked(prog, prog.V)
}

// Run executes prog on a D-BSP(v, µ, g) machine at the default shard
// count (ShardCount(0, v)): the v processors are multiplexed over
// per-shard context arenas, a barrier ends each superstep's handler
// phase, and messages move in a two-phase shard-to-shard exchange (see
// sharded.go). It returns the final contexts and the exact model cost,
// which no shard count changes by a single bit.
func Run(prog *Program, g cost.Func) (*Result, error) {
	return RunSharded(prog, g, 0)
}

// verifyTranspose checks a Superstep.Transpose declaration against the
// outboxes the handlers actually produced: exactly one message per
// processor, to the declared destination.
func verifyTranspose(prog *Program, ctxs [][]Word, st Superstep) error {
	l := prog.Layout
	cs := ClusterSize(prog.V, st.Label)
	tr := st.Transpose
	if tr.M1*tr.M2 != cs {
		return fmt.Errorf("transpose declaration %dx%d does not match cluster size %d", tr.M1, tr.M2, cs)
	}
	for p, ctx := range ctxs {
		if n := int(ctx[l.OutCountOff()]); n != 1 {
			return fmt.Errorf("transpose superstep: processor %d sent %d messages, want 1", p, n)
		}
		lo := (p / cs) * cs
		want := lo + tr.Dest(p-lo)
		if got := int(ctx[l.OutboxOff(0)]); got != want {
			return fmt.Errorf("transpose superstep: processor %d sent to %d, want %d", p, got, want)
		}
	}
	return nil
}

// runProc executes handler run on c, translating model violations
// (which Ctx reports by panicking) into errors.
func runProc(run func(*Ctx), c *Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("handler panic: %v", r)
		}
	}()
	run(c)
	return nil
}
