// Package btsim implements the paper's Section 5 contribution: the
// simulation of fine-grained D-BSP(v, µ, g(x)) programs on the f(x)-BT
// machine (HMM with block transfer), exploiting spatial as well as
// temporal locality.
//
// The scheduler is the one of Section 3 (Figure 5 adds Steps 1.a/5),
// but every data movement is restructured around block transfer:
//
//   - PACK/UNPACK (Figure 4) maintain empty buffer blocks interspersed
//     with the contexts, so region swaps need at most three block
//     transfers; context addresses at most double.
//   - COMPUTE (Figure 6) simulates local computation by recursively
//     staging chunks of c(n) contexts at the top of memory, with
//     overhead TM(n) = O(µ·n·c*(n)).
//   - Message delivery sorts tagged message records with the BT sorting
//     substrate (internal/amsort, standing in for Approx-Median-Sort)
//     and merges them into the destination inboxes with streaming
//     cascades (internal/stream). Because our contexts are fixed-size,
//     the ALIGN realignment pass of the paper is unnecessary; see
//     align.go for a standalone implementation of it.
//
// Theorem 12: the simulation runs in O(v·(τ + µ·Σ_i λ_i·log(µ·v/2^i)))
// — independent of the access function f (up to the iterated-f* factors
// of the substrates), for any (2,c)-uniform f(x) = O(x^α).
package btsim

import (
	"fmt"
	"math/bits"

	"repro/internal/amsort"
	"repro/internal/bt"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/smooth"
)

// Word is the storage unit shared with the machines.
type Word = bt.Word

// Options tunes the simulation.
type Options struct {
	// Labels is the smoothing label set; nil selects the Section 5.2.2
	// construction smooth.LabelsBT(f, µ, v, Alpha, 0).
	Labels []int
	// Alpha is the exponent bound with f(x) = O(x^α) used by the label
	// construction; 0 means 0.5.
	Alpha float64
	// CheckInvariants verifies the scheduler invariants every round.
	CheckInvariants bool
	// DisableRouteDelivery ignores Superstep.Transpose declarations and
	// always delivers by sorting (the Section 6 ablation, experiment
	// E17).
	DisableRouteDelivery bool
	// DirectDeliveryMaxBlocks overrides the cluster-size threshold below
	// which delivery happens word-at-a-time at the top of memory
	// (default 8; -1 disables direct delivery entirely). For the E18
	// ablation.
	DirectDeliveryMaxBlocks int
	// Obs, when non-nil, receives metrics (under the "bt." prefix) and
	// per-phase trace events. See internal/obs for the metric names and
	// how they attribute the Theorem 12 cost terms.
	Obs *obs.Observer
}

// Result reports a completed simulation.
type Result struct {
	// Machine is the host BT machine in its final state.
	Machine *bt.Machine
	// Contexts holds the final µ-word guest contexts in processor
	// order — bit-identical to a native dbsp.Run.
	Contexts [][]Word
	// HostCost is the charged f(x)-BT time.
	HostCost float64
	// Stats is the word-level accounting; Blocks the block transfers.
	Stats  hmm.Stats
	Blocks bt.BlockStats
	// Rounds and Swaps count scheduler activity.
	Rounds, Swaps int64
	// SmoothedSteps is the superstep count after smoothing.
	SmoothedSteps int
	// Labels is the label set used.
	Labels []int
}

type state struct {
	prog *dbsp.Program // smoothed
	// name and from name a failing step as the engine would: smoothed
	// step s is superstep from[s] of the program name.
	name      string
	from      []int
	m         *bt.Machine
	f         cost.Func
	mu        int64
	v         int
	logv      int
	layout    dbsp.Layout
	sNext     []int
	procOf    []int // procOf[logical block] = processor
	posOf     []int // posOf[processor] = logical block
	rounds    int64
	swaps     int64
	check     bool
	noRoute   bool
	directMax int64
	guest     *dbsp.Guest // runs every handler call of the run
	// plans[k] is the delivery plan for clusters of 2^k blocks, planned
	// at the first delivery of that size; the record sort of every
	// delivery is recPlan, replanned per record count, run by sorter.
	plans   []*deliveryPlan
	recPlan *amsort.Plan
	sorter  *amsort.Sorter

	// Observability (nil when Options.Obs is nil; all uses nil-safe).
	obs           *obs.Observer
	ledger        *obs.Ledger
	roundsC       *obs.Counter
	swapsC        *obs.Counter
	sortCompsC    *obs.Counter
	roundsByLabel []*obs.Counter
	frame         string // profile frame of the round: "init" before the loop
}

// Simulate runs prog on an f(x)-BT host. The program must end with a
// 0-superstep. f should be (2,c)-uniform with f(x) = O(x^α) for the
// label construction to apply (pass Options.Labels to override).
func Simulate(prog *dbsp.Program, f cost.Func, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("btsim: nil access function")
	}
	if len(prog.Steps) == 0 {
		return nil, fmt.Errorf("btsim: program %q has no supersteps", prog.Name)
	}
	if !prog.EndsGlobal() {
		return nil, fmt.Errorf("btsim: program %q does not end with a 0-superstep", prog.Name)
	}
	labels := opts.Labels
	if labels == nil {
		alpha := opts.Alpha
		if alpha == 0 {
			alpha = 0.5
		}
		labels = smooth.LabelsBT(f, prog.Mu(), prog.V, alpha, 0)
	}
	run, from, err := smooth.Smooth(prog, labels)
	if err != nil {
		return nil, err
	}

	mu := int64(prog.Mu())
	v := prog.V
	// Memory: the unpacked layout spans 2v blocks; the delivery tail
	// covers the worst-case footprint (whole-machine cluster).
	memWords := 2*int64(v)*mu + deliveryFootprint(f, mu, int64(prog.Layout.MaxMsgs), int64(v)) + 64
	m := bt.New(f, memWords)
	init := dbsp.NewContexts(prog)
	for p, ctx := range init {
		m.PokeRange(int64(p)*mu, ctx)
	}

	st := &state{
		prog: run, name: prog.Name, from: from,
		m: m, f: f, mu: mu, v: v, logv: dbsp.Log2(v),
		layout:    prog.Layout,
		sNext:     make([]int, v),
		procOf:    make([]int, v),
		posOf:     make([]int, v),
		check:     opts.CheckInvariants,
		noRoute:   opts.DisableRouteDelivery,
		directMax: directThreshold(opts.DirectDeliveryMaxBlocks),
		guest:     dbsp.NewGuest(prog.Layout, v),
		plans:     make([]*deliveryPlan, dbsp.Log2(v)+1),
		recPlan:   amsort.NewPlan(f, recWords, 0),
		sorter:    amsort.NewSorter(m),
		frame:     "init",
	}
	for p := 0; p < v; p++ {
		st.procOf[p] = p
		st.posOf[p] = p
	}
	if o := opts.Obs; o != nil {
		st.obs = o
		// Each phase registers at its first charge.
		st.ledger = o.Ledger("bt")
		st.roundsC = o.Counter("bt.rounds")
		st.swapsC = o.Counter("bt.swaps")
		st.sortCompsC = o.Counter("bt.sort.comparisons")
		st.roundsByLabel = make([]*obs.Counter, st.logv+1)
		for l := range st.roundsByLabel {
			st.roundsByLabel[l] = o.Counter(fmt.Sprintf("bt.rounds.label.%d", l))
		}
	}
	publish := m.Observe(opts.Obs, "bt", st.ledger)
	// Round-start invariant: memory fully unpacked (Figure 5, line 0).
	st.phase("unpack", func() { st.unpack(0) })

	if err := st.loop(); err != nil {
		return nil, err
	}

	publish()
	opts.Obs.Gauge("bt.steps.smoothed").Set(int64(len(run.Steps)))

	res := &Result{
		Machine:       m,
		HostCost:      m.Cost(),
		Stats:         m.Stats(),
		Blocks:        m.BlockStats(),
		Rounds:        st.rounds,
		Swaps:         st.swaps,
		SmoothedSteps: len(run.Steps),
		Labels:        labels,
	}
	res.Contexts = make([][]Word, v)
	for p := 0; p < v; p++ {
		phys := unpackedBlock(st.posOf[p]) * mu
		res.Contexts[p] = m.Snapshot(phys, mu)
	}
	return res, nil
}

// unpackedBlock returns the physical block position of logical block j
// in the fully-unpacked layout (Figure 4): block 0 stays at 0; the
// group [2^k, 2^(k+1)) is packed at offset 2^(k+1), so positions at
// most double.
func unpackedBlock(j int) int64 {
	if j == 0 {
		return 0
	}
	k := bits.Len(uint(j)) - 1
	return int64(j) + int64(1)<<uint(k)
}

// unpack performs UNPACK(i) (Figure 4): starting from the top i-cluster
// packed at [0, n) blocks with [n, 2n) empty, it intersperses the empty
// blocks recursively, one block transfer per level.
func (st *state) unpack(i int) {
	for lvl := i; lvl < st.logv; lvl++ {
		n := int64(st.v>>uint(lvl)) * st.mu
		st.m.CopyRange(n/2, n, n/2)
	}
}

// pack reverses unpack: it gathers the top i-cluster into [0, n) blocks
// leaving [n, 2n) free.
func (st *state) pack(i int) {
	for lvl := st.logv - 1; lvl >= i; lvl-- {
		n := int64(st.v>>uint(lvl)) * st.mu
		st.m.CopyRange(n, n/2, n/2)
	}
}

// shiftRight moves [start, start+num) to [start+by, start+num+by)
// (word units) with ceil(num/by) disjoint block transfers, processed
// from the right so segments never overlap.
func (st *state) shiftRight(start, num, by int64) {
	if num == 0 || by == 0 {
		return
	}
	for end := num; end > 0; {
		seg := min64(by, end)
		src := start + end - seg
		st.m.CopyRange(src, src+by, seg)
		end -= seg
	}
}

// shiftLeft moves [start, start+num) to [start-by, start+num-by).
func (st *state) shiftLeft(start, num, by int64) {
	if num == 0 || by == 0 {
		return
	}
	for done := int64(0); done < num; {
		seg := min64(by, num-done)
		src := start + done
		st.m.CopyRange(src, src-by, seg)
		done += seg
	}
}

// phase runs fn inside a cost window charged to the ledger as phase
// name of the round's frame. Plain names (pack, compute, deliver, swap,
// unpack) partition the total; dotted names ("deliver.sort") refine
// their parent phase and overlap its window. With no observer the call
// is a plain function call.
func (st *state) phase(name string, fn func()) {
	if st.obs == nil {
		fn()
		return
	}
	before := st.m.Cost()
	fn()
	delta := st.m.Cost() - before
	st.ledger.Charge(st.frame, name, delta)
	if st.obs.Tracing() {
		st.obs.Emit(obs.Event{Sim: "bt", Kind: "phase", Phase: name,
			Round: st.rounds, Cost: delta})
	}
}

// loop is the while-loop of Figure 5.
func (st *state) loop() error {
	steps := st.prog.Steps
	var maxRounds int64
	for _, s := range steps {
		maxRounds += int64(1) << uint(s.Label)
	}
	maxRounds++

	for {
		st.rounds++
		st.roundsC.Inc()
		if st.rounds > maxRounds {
			return fmt.Errorf("btsim: scheduler did not terminate after %d rounds", st.rounds)
		}
		p := st.procOf[0]
		s := st.sNext[p]
		if s == len(steps) {
			return nil
		}
		label := steps[s].Label
		csize := st.v >> uint(label)
		lo := (p / csize) * csize

		if st.check {
			if err := st.verifyInvariants(s, lo, csize); err != nil {
				return err
			}
		}
		if st.roundsByLabel != nil {
			st.roundsByLabel[label].Inc()
		}
		st.frame = obs.LabelFrame(label)

		// Step 1.a: pack the top cluster.
		st.phase("pack", func() { st.pack(label) })
		// Step 2: simulate the superstep.
		if steps[s].Run != nil {
			var err error
			st.phase("compute", func() { err = st.guest.Catch(func() { st.compute(int64(csize), lo, s) }) })
			if err == nil {
				st.phase("deliver", func() { err = st.dispatchDeliver(int64(csize), lo, steps[s].Transpose) })
			}
			if err != nil {
				return fmt.Errorf("btsim: program %q superstep %d: %w", st.name, st.from[s], err)
			}
		}
		for q := lo; q < lo+csize; q++ {
			st.sNext[q] = s + 1
		}
		// Step 4: sibling cycle when the next superstep is coarser.
		if s+1 < len(steps) {
			if nextLabel := steps[s+1].Label; nextLabel < label {
				b := 1 << uint(label-nextLabel)
				j := (lo / csize) % b
				st.phase("swap", func() {
					if j > 0 {
						st.swapTopWithSibling(j, csize)
					}
					if j < b-1 {
						st.swapTopWithSibling(j+1, csize)
					}
				})
			}
		}
		// Step 5: restore the unpacked invariant.
		st.phase("unpack", func() { st.unpack(label) })
	}
}

// swapTopWithSibling exchanges the packed top cluster [0, csize) with
// sibling r (logical blocks [r·csize, (r+1)·csize), packed at its
// canonical position) using the free blocks [csize, 2·csize) as
// scratch: exactly three block transfers (Section 5.2.2's Step 4
// analysis).
func (st *state) swapTopWithSibling(r, csize int) {
	n := int64(csize) * st.mu
	s := unpackedBlock(r*csize) * st.mu
	st.m.CopyRange(0, n, n) // stash top into the buffer
	st.m.CopyRange(s, 0, n) // sibling to the top
	st.m.CopyRange(n, s, n) // stash to the sibling's home
	for k := 0; k < csize; k++ {
		a, b := k, r*csize+k
		pa, pb := st.procOf[a], st.procOf[b]
		st.procOf[a], st.procOf[b] = pb, pa
		st.posOf[pa], st.posOf[pb] = b, a
	}
	st.swaps++
	st.swapsC.Inc()
}

// verifyInvariants checks the scheduler invariants at a round start.
func (st *state) verifyInvariants(s, lo, csize int) error {
	for q := lo; q < lo+csize; q++ {
		if st.sNext[q] != s {
			return fmt.Errorf("btsim: invariant 1 violated: proc %d at step %d, cluster simulating %d", q, st.sNext[q], s)
		}
	}
	for k := 0; k < csize; k++ {
		if st.procOf[k] != lo+k {
			return fmt.Errorf("btsim: invariant 2 violated: logical block %d holds proc %d, want %d", k, st.procOf[k], lo+k)
		}
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// directThreshold resolves the Options.DirectDeliveryMaxBlocks setting.
func directThreshold(opt int) int64 {
	switch {
	case opt < 0:
		return 0
	case opt == 0:
		return directDeliveryMaxBlocks
	default:
		return int64(opt)
	}
}
