package btsim

import (
	"fmt"

	"repro/internal/amsort"
	"repro/internal/bt"
	"repro/internal/cost"
	"repro/internal/dbsp"
)

// SimulateNaive is the step-by-step BT baseline of Section 5.3: it
// simulates one entire superstep after another for all v processors,
// with the best block-transfer mechanics available (the COMPUTE chunk
// recursion over the whole machine and the sorting delivery), but no
// cluster scheduling whatsoever. Every superstep therefore touches all
// v contexts — paying at least the Fact 2 touching cost Θ(µ·v·f*(µ·v))
// and the full-machine delivery Θ(µ·v·log(µ·v)) regardless of the
// superstep's label — whereas the Figure 5 scheduler confines an
// i-superstep to µ·v/2^i words. Experiment E10 measures the gap.
func SimulateNaive(prog *dbsp.Program, f cost.Func) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("btsim: nil access function")
	}
	mu := int64(prog.Mu())
	v := prog.V
	memWords := 2*int64(v)*mu + deliveryFootprint(f, mu, int64(prog.Layout.MaxMsgs), int64(v)) + 64
	m := bt.New(f, memWords)
	init := dbsp.NewContexts(prog)
	for p, ctx := range init {
		m.PokeRange(int64(p)*mu, ctx)
	}
	st := &state{
		prog: prog, m: m, f: f, mu: mu, v: v, logv: dbsp.Log2(v),
		layout:    prog.Layout,
		procOf:    make([]int, v),
		posOf:     make([]int, v),
		directMax: directDeliveryMaxBlocks,
		guest:     dbsp.NewGuest(prog.Layout, v),
		plans:     make([]*deliveryPlan, dbsp.Log2(v)+1),
		recPlan:   amsort.NewPlan(f, recWords, 0),
		sorter:    amsort.NewSorter(m),
	}
	for p := 0; p < v; p++ {
		st.procOf[p] = p
		st.posOf[p] = p
	}
	// Contexts stay packed at [0, v·µ); the region [v·µ, 2v·µ) is the
	// COMPUTE working space.
	for s, step := range prog.Steps {
		if step.Run == nil {
			continue
		}
		err := st.guest.Catch(func() { st.compute(int64(v), 0, s) })
		if err == nil {
			err = st.dispatchDeliver(int64(v), 0, step.Transpose)
		}
		if err != nil {
			return nil, fmt.Errorf("btsim: naive: program %q superstep %d: %w", prog.Name, s, err)
		}
	}
	res := &Result{
		Machine:       m,
		HostCost:      m.Cost(),
		Stats:         m.Stats(),
		Blocks:        m.BlockStats(),
		SmoothedSteps: len(prog.Steps),
	}
	res.Contexts = make([][]Word, v)
	for p := 0; p < v; p++ {
		res.Contexts[p] = m.Snapshot(int64(p)*mu, mu)
	}
	return res, nil
}
