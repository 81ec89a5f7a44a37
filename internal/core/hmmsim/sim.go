// Package hmmsim implements the paper's core contribution (Section 3,
// Figure 1): simulating an arbitrary fine-grained D-BSP(v, µ, g(x))
// program on a sequential f(x)-HMM with the same aggregate memory, by
// turning submachine locality into temporal locality of reference.
//
// The host memory is divided into v blocks of µ cells; block j initially
// holds the context of processor P_j. The simulation proceeds in rounds,
// each simulating one superstep for one s-ready cluster whose contexts
// occupy the topmost blocks (Invariant 2), choosing the next cluster so
// that the same cluster is simulated for as many consecutive supersteps
// as possible, and cycling sibling clusters through the top of memory
// when a coarser superstep requires them all (the Figure 2 cycle).
//
// Theorem 5: the simulation runs in O(v·(τ + µ·Σ_i λ_i·f(µ·v/2^i)))
// time; with g = f the slowdown is Θ(v) (Corollary 6) — linear in the
// loss of parallelism, with no extra hierarchy-induced cost.
package hmmsim

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/smooth"
)

// Word is the storage unit shared with the machines.
type Word = hmm.Word

// Options tunes the simulation.
type Options struct {
	// Labels is the smoothing label set L. When nil, the Theorem 5 set
	// smooth.LabelsHMM(f, µ, v, C2) is used.
	Labels []int
	// C2 is the geometric decay constant of the default label-set
	// construction; 0 means 0.5.
	C2 float64
	// DisableSmoothing simulates the raw program (experiment E14's
	// ablation). The program must already be smooth over its own label
	// set, or Simulate returns an error.
	DisableSmoothing bool
	// CheckInvariants verifies Invariants 1 and 2 at the start of every
	// round (O(v) host-side work per round; for tests).
	CheckInvariants bool
	// ProcOffset and GlobalV present handlers with a global identity:
	// processor q of this (sub-)program appears as ProcOffset+q on a
	// GlobalV-processor machine, and message addressing is translated
	// accordingly. LabelOffset shifts superstep labels for the cluster
	// legality check. Zero values mean the program is self-contained.
	// These hooks exist for the Theorem 10 self-simulation, which runs
	// label-shifted sub-programs inside host memory modules.
	ProcOffset  int
	GlobalV     int
	LabelOffset int
	// Observer, when non-nil, is invoked at the start of every round
	// with the round number, the next superstep index and label, and the
	// current block-to-processor assignment (do not retain the slice).
	// cmd/memtrace uses it to render the Figure 2 cluster movements.
	Observer func(round int64, step, label int, procOfBlock []int)
	// Obs, when non-nil, receives metrics (under the "hmm." prefix)
	// and per-round trace events. See internal/obs for the metric
	// names and how they attribute the Theorem 5 cost terms.
	Obs *obs.Observer
}

// Result reports a completed simulation.
type Result struct {
	// Machine is the host HMM in its final state.
	Machine *hmm.Machine
	// Contexts holds the final µ-word context of every guest processor,
	// in processor order — bit-identical to a native dbsp.Run.
	Contexts [][]Word
	// HostCost is the charged f(x)-HMM time.
	HostCost float64
	// Stats is the host machine's operation accounting.
	Stats hmm.Stats
	// Rounds counts simulation rounds (while-loop iterations).
	Rounds int64
	// Swaps counts cluster-region swaps performed by the scheduler.
	Swaps int64
	// SmoothedSteps is the superstep count after smoothing (>= the
	// input program's).
	SmoothedSteps int
	// Labels is the label set actually used.
	Labels []int
}

// state is the simulator's control state. The paper's algorithm derives
// cluster positions from its invariants; we mirror them in host-side
// tables (posOfProc/procOfBlock), which is bookkeeping of the
// simulating program, not charged guest memory traffic.
type state struct {
	prog *dbsp.Program // smoothed program
	// name, from and first name a failing step as the engine would:
	// smoothed step s is superstep first+from[s] of the program name
	// (from nil: first+s).
	name     string
	from     []int
	first    int
	m        *hmm.Machine
	mu       int64
	v        int
	sNext    []int // next superstep to simulate, per processor
	posOf    []int // block index currently holding processor p's context
	procOf   []int // processor whose context block b currently holds
	rounds   int64
	swaps    int64
	check    bool
	layout   dbsp.Layout
	procOff  int // global id of local processor 0
	labelOff int
	observer func(round int64, step, label int, procOfBlock []int)
	guest    *dbsp.Guest // runs every handler call of the run

	// Observability (all nil-safe; nil when opts.Obs is nil). The
	// ledger's phases partition the cost: compute (handler work plus
	// context accesses), deliver (message exchange) and swap (Figure 2
	// sibling cycling).
	obs           *obs.Observer
	ledger        *obs.Ledger
	roundsC       *obs.Counter
	swapsC        *obs.Counter
	roundsByLabel []*obs.Counter // rounds executed per superstep label
}

// Simulate runs prog on an f(x)-HMM host, returning the final guest
// contexts and the exact charged host cost. The program must end with a
// 0-superstep (the standard global-synchronization assumption) so that
// every cluster's work is driven to completion.
func Simulate(prog *dbsp.Program, f cost.Func, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("hmmsim: nil access function")
	}
	if len(prog.Steps) == 0 {
		return nil, fmt.Errorf("hmmsim: program %q has no supersteps", prog.Name)
	}
	if !prog.EndsGlobal() {
		return nil, fmt.Errorf("hmmsim: program %q does not end with a 0-superstep", prog.Name)
	}

	// Smooth the program over the Theorem 5 label set (or the caller's).
	run := prog
	var from []int
	labels := opts.Labels
	if opts.DisableSmoothing {
		labels = smooth.FromProgram(prog)
		if !prog.IsSmooth(labels) {
			return nil, fmt.Errorf("hmmsim: smoothing disabled but program %q is not smooth over its own labels", prog.Name)
		}
	} else {
		if labels == nil {
			c2 := opts.C2
			if c2 == 0 {
				c2 = 0.5
			}
			labels = smooth.LabelsHMM(f, prog.Mu(), prog.V, c2)
		}
		var err error
		run, from, err = smooth.Smooth(prog, labels)
		if err != nil {
			return nil, err
		}
	}

	mu := int64(prog.Mu())
	m := hmm.New(f, int64(prog.V)*mu)
	// Load the initial contexts: block j = context of P_j. The input
	// distribution is given, not charged.
	init := dbsp.NewContexts(prog)
	for p, ctx := range init {
		m.PokeRange(int64(p)*mu, ctx)
	}

	st := newState(m, prog.Name, run, from, 0, opts)
	publish := m.Observe(opts.Obs, "hmm", st.ledger)
	if err := st.loop(); err != nil {
		return nil, err
	}
	publish()
	opts.Obs.Gauge("hmm.steps.smoothed").Set(int64(len(run.Steps)))

	res := &Result{
		Machine:       m,
		HostCost:      m.Cost(),
		Stats:         m.Stats(),
		Rounds:        st.rounds,
		Swaps:         st.swaps,
		SmoothedSteps: len(run.Steps),
		Labels:        labels,
	}
	res.Contexts = make([][]Word, prog.V)
	for p := 0; p < prog.V; p++ {
		res.Contexts[p] = m.Snapshot(int64(st.posOf[p])*mu, mu)
	}
	return res, nil
}

// newState builds the scheduler state over an existing machine for
// run, the smoothing of program name, whose step s is superstep
// first+from[s] of name (first+s when from is nil).
func newState(m *hmm.Machine, name string, run *dbsp.Program, from []int, first int, opts *Options) *state {
	globalV := opts.GlobalV
	if globalV == 0 {
		globalV = run.V
	}
	layout := run.Layout
	st := &state{
		prog: run, name: name, from: from, first: first,
		m: m, mu: int64(layout.Mu()), v: run.V,
		sNext:    make([]int, run.V),
		posOf:    make([]int, run.V),
		procOf:   make([]int, run.V),
		check:    opts.CheckInvariants,
		layout:   layout,
		procOff:  opts.ProcOffset,
		labelOff: opts.LabelOffset,
		observer: opts.Observer,
		guest:    dbsp.NewGuest(layout, globalV),
	}
	for p := 0; p < run.V; p++ {
		st.posOf[p] = p
		st.procOf[p] = p
	}
	if o := opts.Obs; o != nil {
		// Resolve every hot-path metric once; the loop then touches
		// only atomics.
		st.obs = o
		st.ledger = o.Ledger("hmm", "compute", "deliver", "swap")
		st.roundsC = o.Counter("hmm.rounds")
		st.swapsC = o.Counter("hmm.swaps")
		st.roundsByLabel = make([]*obs.Counter, run.LogV()+1)
		for l := range st.roundsByLabel {
			st.roundsByLabel[l] = o.Counter(fmt.Sprintf("hmm.rounds.label.%d", l))
		}
	}
	return st
}

// SimulateOn runs prog's supersteps against contexts ALREADY RESIDENT
// in m (block j of the first v·µ words holds processor j's context;
// prog.Init is ignored). It is the entry point the Theorem 10
// self-simulation uses to run a label-shifted sub-program inside one
// host processor's memory module. prog is smoothed over the given label
// set and must end with a label-0 superstep; on return, block j again
// holds processor j's context. prog's supersteps are supersteps first,
// first+1, … of the program it was cut from, and an error names them
// so, under prog.Name.
func SimulateOn(m *hmm.Machine, prog *dbsp.Program, first int, labels []int, opts *Options) error {
	if opts == nil {
		opts = &Options{}
	}
	if !prog.EndsGlobal() {
		return fmt.Errorf("hmmsim: program %q does not end with a 0-superstep", prog.Name)
	}
	run, from, err := smooth.Smooth(prog, labels)
	if err != nil {
		return err
	}
	st := newState(m, prog.Name, run, from, first, opts)
	return st.loop()
}

// loop is the while-loop of Figure 1.
func (st *state) loop() error {
	steps := st.prog.Steps
	logv := st.prog.LogV()
	// Safety bound: every round either simulates a superstep for a
	// cluster or is impossible; total cluster-steps <= Σ_s 2^{label_s}.
	var maxRounds int64
	for _, s := range steps {
		maxRounds += int64(1) << uint(s.Label)
	}
	maxRounds++

	for {
		st.rounds++
		st.roundsC.Inc()
		if st.rounds > maxRounds {
			return fmt.Errorf("hmmsim: scheduler did not terminate after %d rounds (program not smooth or missing global end?)", st.rounds)
		}
		// Step 1: P = processor whose context is on top of memory.
		p := st.procOf[0]
		s := st.sNext[p]
		if s == len(steps) {
			return nil // P finished; by the global final superstep, all have.
		}
		label := steps[s].Label
		csize := st.v >> uint(label)
		cIdx := p / csize
		lo := cIdx * csize

		if st.observer != nil {
			st.observer(st.rounds, s, label, st.procOf)
		}
		if st.check {
			if err := st.verifyInvariants(s, lo, csize); err != nil {
				return err
			}
		}
		// Per-label counts cover work rounds only; the terminating
		// check round above is counted in hmm.rounds but has no label.
		if st.roundsByLabel != nil {
			st.roundsByLabel[label].Inc()
		}
		tracing := st.obs.Tracing()
		var costBefore float64
		if tracing {
			costBefore = st.m.Cost()
		}

		// Step 2: simulate superstep s for cluster C.
		if steps[s].Run != nil {
			if err := st.simulateStep(s, lo, csize); err != nil {
				return fmt.Errorf("hmmsim: program %q superstep %d: %w", st.name, st.inputStep(s), err)
			}
		}
		for q := lo; q < lo+csize; q++ {
			st.sNext[q] = s + 1
		}

		// Step 3: exit is handled at the top of the next round.
		// Step 4: when the next superstep is coarser, cycle sibling
		// clusters through the top of memory.
		if s+1 < len(steps) {
			nextLabel := steps[s+1].Label
			if nextLabel < label {
				if nextLabel < 0 || label > logv {
					return fmt.Errorf("hmmsim: corrupt labels %d -> %d", label, nextLabel)
				}
				b := 1 << uint(label-nextLabel)
				j := cIdx % b
				if j > 0 {
					st.swapRegions(nextLabel, j, csize)
				}
				if j < b-1 {
					st.swapRegions(nextLabel, j+1, csize)
				}
			}
		}
		if tracing {
			st.obs.Emit(obs.Event{Sim: "hmm", Kind: "round", Round: st.rounds,
				Step: s, Label: label, N: int64(csize), Cost: st.m.Cost() - costBefore})
		}
	}
}

// inputStep returns the superstep of the input program that smoothed
// step s runs.
func (st *state) inputStep(s int) int {
	if st.from == nil {
		return st.first + s
	}
	return st.first + st.from[s]
}

// simulateStep performs Step 2: local computation for each processor of
// the cluster with its context brought to the top of memory, then the
// message exchange by a sequential scan of the outboxes. A handler
// panic or an inbox overflow ends the step with an error naming the
// processor.
func (st *state) simulateStep(s, lo, csize int) error {
	step := st.prog.Steps[s]
	frame := obs.LabelFrame(step.Label)
	mark := st.m.Cost()
	// Local computation. The paper brings each context in turn to the
	// top of memory; running the handler in place at block k is
	// equivalent for the Theorem 5 analysis — every access stays within
	// the first µ·|C| cells, so each of the O(µ) handler operations
	// costs at most f(µ·|C|) — and saves the 8µ swap accesses per
	// processor per superstep that a literal bring-to-top would charge.
	if err := st.guest.RunBlocks(step.Run, st.m, st.procOff+lo, csize, st.labelOff+step.Label); err != nil {
		return err
	}
	now := st.m.Cost()
	st.ledger.Charge(frame, "compute", now-mark)
	// By Invariant 2 the context of processor q sits in block q-lo.
	if err := deliver(st.m, st.layout, st.procOff+lo, csize); err != nil {
		return err
	}
	st.ledger.Charge(frame, "deliver", st.m.Cost()-now)
	return nil
}

// deliver exchanges the messages of processors first, …, first+n-1,
// whose contexts sit at blocks 0, …, n-1 of m: it clears the inbox
// counts (the dbsp engine's delivery semantics), then scans the outboxes
// in ascending processor order, delivering by direct addressing. A
// message that finds its inbox full ends the exchange with the engine's
// overflow error: the scan meets the overflows in the engine's order.
func deliver(m *hmm.Machine, l dbsp.Layout, first, n int) error {
	mu := int64(l.Mu())
	for k := 0; k < n; k++ {
		m.Write(int64(k)*mu+int64(l.InCountOff()), 0)
	}
	for k := 0; k < n; k++ {
		base := int64(k) * mu
		sent := m.Read(base + int64(l.OutCountOff()))
		for e := int64(0); e < sent; e++ {
			dest := m.Read(base + int64(l.OutboxOff(int(e))))
			payload := m.Read(base + int64(l.OutboxOff(int(e))) + 1)
			dbase := (dest - int64(first)) * mu
			count := m.Read(dbase + int64(l.InCountOff()))
			if count >= int64(l.MaxMsgs) {
				return l.InboxOverflow(int(dest))
			}
			m.Write(dbase+int64(l.InboxOff(int(count))), int64(first+k))
			m.Write(dbase+int64(l.InboxOff(int(count)))+1, payload)
			m.Write(dbase+int64(l.InCountOff()), count+1)
		}
		if sent > 0 {
			m.Write(base+int64(l.OutCountOff()), 0)
		}
	}
	return nil
}

// swapRegions exchanges the csize-block region at the top of memory
// with region r (blocks [r·csize, (r+1)·csize)), updating the
// processor-position tables. label is the coarser superstep label whose
// cycling caused the swap; it scopes the profile attribution only.
func (st *state) swapRegions(label, r, csize int) {
	mu := st.mu
	mark := st.m.Cost()
	st.m.SwapRange(0, int64(r)*int64(csize)*mu, int64(csize)*mu)
	for k := 0; k < csize; k++ {
		a, b := k, r*csize+k
		pa, pb := st.procOf[a], st.procOf[b]
		st.procOf[a], st.procOf[b] = pb, pa
		st.posOf[pa], st.posOf[pb] = b, a
	}
	st.swaps++
	st.swapsC.Inc()
	st.ledger.Charge(obs.LabelFrame(label), "swap", st.m.Cost()-mark)
}

// verifyInvariants checks Invariants 1 and 2 for the round about to
// simulate superstep s for the cluster of processors [lo, lo+csize).
func (st *state) verifyInvariants(s, lo, csize int) error {
	// Invariant 1: the cluster is s-ready.
	for q := lo; q < lo+csize; q++ {
		if st.sNext[q] != s {
			return fmt.Errorf("hmmsim: invariant 1 violated: proc %d at step %d, cluster simulating %d", q, st.sNext[q], s)
		}
	}
	// Invariant 2: contexts in the topmost csize blocks, sorted.
	for k := 0; k < csize; k++ {
		if st.procOf[k] != lo+k {
			return fmt.Errorf("hmmsim: invariant 2 violated: block %d holds proc %d, want %d", k, st.procOf[k], lo+k)
		}
	}
	// Every other cluster's contexts must be in consecutive blocks. At
	// this granularity that means every sibling csize-group of blocks
	// holds a csize-aligned set of processors.
	for g := csize; g < st.v; g += csize {
		base := st.procOf[g]
		if base%csize != 0 {
			continue // a coarser cluster mid-cycle; covered by its own rounds
		}
		for k := 1; k < csize; k++ {
			if st.procOf[g+k] != base+k {
				return fmt.Errorf("hmmsim: invariant 2 violated: block group at %d not consecutive", g)
			}
		}
	}
	return nil
}
