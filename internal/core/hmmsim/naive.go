package hmmsim

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/hmm"
)

// SimulateNaive is the step-by-step baseline the paper argues against
// (Section 5.3): it simulates one entire superstep after another for
// all v processors, leaving every context in its home block. Each
// superstep therefore touches all v contexts and pays Θ(µ·v·f(µ·v))
// regardless of the superstep's label — time ω(v) per superstep for any
// unbounded access function — whereas the Figure 1 scheduler confines
// an i-superstep's traffic to the top µ·v/2^i cells. Experiment E04
// measures the gap.
func SimulateNaive(prog *dbsp.Program, f cost.Func) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("hmmsim: nil access function")
	}
	mu := int64(prog.Mu())
	v := prog.V
	l := prog.Layout
	m := hmm.New(f, int64(v)*mu)
	init := dbsp.NewContexts(prog)
	for p, ctx := range init {
		m.PokeRange(int64(p)*mu, ctx)
	}

	guest := dbsp.NewGuest(l, v)
	for s, step := range prog.Steps {
		if step.Run == nil {
			continue
		}
		// Local computation, context in place at block p.
		err := guest.RunBlocks(step.Run, m, 0, v, step.Label)
		if err == nil {
			err = deliver(m, l, 0, v)
		}
		if err != nil {
			return nil, fmt.Errorf("hmmsim: naive: program %q superstep %d: %w", prog.Name, s, err)
		}
	}

	res := &Result{
		Machine:       m,
		HostCost:      m.Cost(),
		Stats:         m.Stats(),
		SmoothedSteps: len(prog.Steps),
	}
	res.Contexts = make([][]Word, v)
	for p := 0; p < v; p++ {
		res.Contexts[p] = m.Snapshot(int64(p)*mu, mu)
	}
	return res, nil
}
