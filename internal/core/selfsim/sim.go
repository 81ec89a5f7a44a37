// Package selfsim implements the Section 4 contribution: simulating a
// D-BSP(v, µ, g(x)) program on a D-BSP(v′, µ·v/v′, g(x)) with fewer
// processors, where every host processor is a g(x)-HMM of size µ·v/v′.
// Theorem 10 bounds the simulation time by
// O((v/v′)·(τ + µ·Σ_i λ_i·g(µ·v/2^i))), which for full (and in
// particular fine-grained) programs is the optimal Θ(T·v/v′) slowdown —
// the analogue of Brent's lemma showing that D-BSP with hierarchical
// memory modules integrates the network and memory hierarchies
// seamlessly (Corollary 11).
//
// The strategy follows the theorem's proof: host processor P_j owns
// guest cluster C^(log v′)_j, its memory module holding the v/v′ guest
// contexts in blocks of µ. The program is partitioned into maximal runs
// of supersteps with labels below log v′ (simulated superstep by
// superstep, with real host communication) and runs with labels at
// least log v′ (simulated independently inside each module by the
// Section 3 HMM scheduler, via hmmsim.SimulateOn with identity and
// label offsets).
package selfsim

import (
	"fmt"

	"repro/internal/core/hmmsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/smooth"
)

// Word is the storage unit shared with the machines.
type Word = hmm.Word

// Options tunes the self-simulation.
type Options struct {
	// C2 is the decay constant for the local-run label sets; 0 = 0.5.
	C2 float64
	// CheckInvariants enables the scheduler invariant checks inside the
	// local-run simulations.
	CheckInvariants bool
	// Obs, when non-nil, receives metrics (under the "self." prefix) and
	// per-phase trace events. See internal/obs for the metric names and
	// how they attribute the Theorem 10 cost terms.
	Obs *obs.Observer
}

// Result reports a completed self-simulation.
type Result struct {
	// Contexts holds the final guest contexts in global processor
	// order — bit-identical to a native run of the guest program.
	Contexts [][]Word
	// HostCost is the simulated D-BSP(v′, µ·v/v′, g) time: per phase,
	// the maximum over host processors of charged module time, plus the
	// communication term h·g(µ·v/2^i) of every global superstep.
	HostCost float64
	// ModuleCost and CommCost split HostCost into memory and router
	// contributions.
	ModuleCost, CommCost float64
	// GlobalSteps and LocalRuns count how the program was partitioned.
	GlobalSteps, LocalRuns int
}

// Simulate runs prog on a D-BSP(v′, µ·v/v′, g) host. vPrime must be a
// power of two between 1 and prog.V, and the program must end with a
// 0-superstep.
func Simulate(prog *dbsp.Program, g cost.Func, vPrime int, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("selfsim: nil bandwidth function")
	}
	if vPrime < 1 || vPrime&(vPrime-1) != 0 || vPrime > prog.V {
		return nil, fmt.Errorf("selfsim: v'=%d not a power of two in [1, %d]", vPrime, prog.V)
	}
	if !prog.EndsGlobal() {
		return nil, fmt.Errorf("selfsim: program %q does not end with a 0-superstep", prog.Name)
	}

	s := &sim{
		prog:    prog,
		g:       g,
		vPrime:  vPrime,
		perHost: prog.V / vPrime,
		logvp:   dbsp.Log2(vPrime),
		mu:      int64(prog.Mu()),
		layout:  prog.Layout,
		opts:    opts,
		guest:   dbsp.NewGuest(prog.Layout, prog.V),
		inbox:   make([][]message, vPrime),
		obs:     opts.Obs,
		ledger:  opts.Obs.Ledger("self", "local", "compute", "place", "comm"),
	}
	s.modules = make([]*hmm.Machine, vPrime)
	init := dbsp.NewContexts(prog)
	for j := 0; j < vPrime; j++ {
		s.modules[j] = hmm.New(g, int64(s.perHost)*s.mu)
		for k := 0; k < s.perHost; k++ {
			s.modules[j].PokeRange(int64(k)*s.mu, init[j*s.perHost+k])
		}
	}
	if err := s.run(); err != nil {
		return nil, err
	}

	res := &Result{
		HostCost:    s.moduleCost + s.commCost,
		ModuleCost:  s.moduleCost,
		CommCost:    s.commCost,
		GlobalSteps: s.globalSteps,
		LocalRuns:   s.localRuns,
	}
	s.ledger.Total(res.HostCost)
	if o := opts.Obs; o != nil {
		o.Counter("self.global.steps").Add(int64(s.globalSteps))
		o.Counter("self.local.runs").Add(int64(s.localRuns))
		o.Gauge("self.v").Set(int64(prog.V))
		o.Gauge("self.vprime").Set(int64(vPrime))
		o.Gauge("self.perhost").Set(int64(s.perHost))
	}
	res.Contexts = make([][]Word, prog.V)
	for j := 0; j < vPrime; j++ {
		for k := 0; k < s.perHost; k++ {
			res.Contexts[j*s.perHost+k] = s.modules[j].Snapshot(int64(k)*s.mu, s.mu)
		}
	}
	return res, nil
}

type sim struct {
	prog    *dbsp.Program
	g       cost.Func
	vPrime  int
	perHost int
	logvp   int
	mu      int64
	layout  dbsp.Layout
	opts    *Options
	modules []*hmm.Machine
	guest   *dbsp.Guest // runs every global step's handler calls
	inbox   [][]message // per host, the guest messages a global step routes to it

	moduleCost  float64
	commCost    float64
	globalSteps int
	localRuns   int

	// Observability (nil-safe; nil when Options.Obs is nil). The four
	// ledger phases partition HostCost: local (module time of local
	// runs, under the profile frame "local-run"), compute (Phase A of
	// global steps), place (Phase B) and comm (the router term
	// h·g(µ·v/2^i)).
	obs    *obs.Observer
	ledger *obs.Ledger
}

// run partitions the program into maximal global/local runs and
// simulates each.
func (s *sim) run() error {
	steps := s.prog.Steps
	for i := 0; i < len(steps); {
		if steps[i].Label >= s.logvp {
			j := i
			for j < len(steps) && steps[j].Label >= s.logvp {
				j++
			}
			if err := s.localRun(steps[i:j], i); err != nil {
				return err
			}
			i = j
			continue
		}
		if err := s.globalStep(steps[i], i); err != nil {
			return err
		}
		i++
	}
	return nil
}

// localRun simulates a maximal run of supersteps with labels >= log v′:
// every host processor runs the Section 3 scheduler on its own module,
// independently and (conceptually) in parallel — the charged time is
// the maximum module delta.
func (s *sim) localRun(steps []dbsp.Superstep, first int) error {
	s.localRuns++
	sub := &dbsp.Program{
		Name:   s.prog.Name,
		V:      s.perHost,
		Layout: s.layout,
		Steps:  make([]dbsp.Superstep, 0, len(steps)+1),
	}
	for _, st := range steps {
		sub.Steps = append(sub.Steps, dbsp.Superstep{Label: st.Label - s.logvp, Run: st.Run})
	}
	// Drive every local cluster to completion with a closing dummy
	// 0-superstep (the run itself need not end at the coarsest local
	// level; the dummy costs only cluster swaps).
	sub.Steps = append(sub.Steps, dbsp.Superstep{Label: 0, Run: nil})

	c2 := s.opts.C2
	if c2 == 0 {
		c2 = 0.5
	}
	labels := smooth.LabelsHMM(s.g, s.layout.Mu(), s.perHost, c2)
	var maxDelta float64
	for j := 0; j < s.vPrime; j++ {
		before := s.modules[j].Cost()
		err := hmmsim.SimulateOn(s.modules[j], sub, first, labels, &hmmsim.Options{
			ProcOffset:      j * s.perHost,
			GlobalV:         s.prog.V,
			LabelOffset:     s.logvp,
			CheckInvariants: s.opts.CheckInvariants,
		})
		if err != nil {
			return fmt.Errorf("selfsim: host %d: %w", j, err)
		}
		if d := s.modules[j].Cost() - before; d > maxDelta {
			maxDelta = d
		}
	}
	s.moduleCost += maxDelta
	s.ledger.Charge("local-run", "local", maxDelta)
	if s.obs.Tracing() {
		s.obs.Emit(obs.Event{Sim: "self", Kind: "local-run", Step: first,
			Label: steps[0].Label, N: int64(len(steps)), Cost: maxDelta})
	}
	return nil
}

// message is an in-flight guest message routed between host processors;
// entry is its index in src's outbox.
type message struct {
	src, entry, dest int
	payload          Word
}

// globalStep simulates one superstep with label < log v′: local
// computation inside every module, a host i-superstep exchanging the
// guest messages, and a host (log v′)-superstep placing them into the
// destination inboxes.
func (s *sim) globalStep(st dbsp.Superstep, index int) error {
	if st.Run == nil {
		return nil
	}
	s.globalSteps++
	costBefore := s.moduleCost + s.commCost
	frame := obs.LabelFrame(st.Label)
	l := s.layout
	mu := s.mu
	inbox := s.inbox
	for j := range inbox {
		inbox[j] = inbox[j][:0]
	}

	// Phase A: local computation and outbox collection, per host. h,
	// the degree of the guest messages' h-relation, is the most one
	// host sends or receives.
	var maxDelta float64
	h := 0
	for j := 0; j < s.vPrime; j++ {
		m := s.modules[j]
		before := m.Cost()
		if err := s.guest.RunBlocks(st.Run, m, j*s.perHost, s.perHost, st.Label); err != nil {
			return fmt.Errorf("selfsim: program %q superstep %d: %w", s.prog.Name, index, err)
		}
		// Collect and clear the outboxes (charged module traffic).
		sent := 0
		for k := 0; k < s.perHost; k++ {
			base := int64(k) * mu
			n := m.Read(base + int64(l.OutCountOff()))
			for e := int64(0); e < n; e++ {
				dest := int(m.Read(base + int64(l.OutboxOff(int(e)))))
				payload := m.Read(base + int64(l.OutboxOff(int(e))) + 1)
				dj := dest / s.perHost
				inbox[dj] = append(inbox[dj], message{src: j*s.perHost + k, entry: int(e), dest: dest, payload: payload})
				sent++
			}
			if n > 0 {
				m.Write(base+int64(l.OutCountOff()), 0)
			}
		}
		h = max(h, sent)
		if d := m.Cost() - before; d > maxDelta {
			maxDelta = d
		}
	}
	s.moduleCost += maxDelta
	s.ledger.Charge(frame, "compute", maxDelta)

	// Router charge: an h-relation of guest messages within i-clusters,
	// each message a remote access of cost g(µ·v/2^i)
	// (= g(µ_host·v′/2^i)).
	for _, in := range inbox {
		h = max(h, len(in))
	}
	comm := float64(h) * dbsp.CommCost(s.g, s.layout.Mu(), s.prog.V, st.Label)
	s.commCost += comm
	s.ledger.Charge(frame, "comm", comm)

	// Phase B (the log v′-superstep): clear every inbox and place the
	// received messages, in ascending global sender order. A message
	// that finds its inbox full is dropped, and the step fails naming
	// the inbox whose overflow comes first in ascending (src, entry)
	// order, the order the engine's scan meets them in.
	maxDelta = 0
	ovf := message{dest: -1}
	for j := 0; j < s.vPrime; j++ {
		m := s.modules[j]
		before := m.Cost()
		for k := 0; k < s.perHost; k++ {
			m.Write(int64(k)*mu+int64(l.InCountOff()), 0)
		}
		// Messages were queued in ascending (host, guest, entry) order,
		// which is ascending global sender order.
		for _, msg := range inbox[j] {
			dbase := int64(msg.dest-j*s.perHost) * mu
			n := m.Read(dbase + int64(l.InCountOff()))
			if int(n) >= l.MaxMsgs {
				if ovf.dest < 0 || msg.src < ovf.src || (msg.src == ovf.src && msg.entry < ovf.entry) {
					ovf = msg
				}
				continue
			}
			m.Write(dbase+int64(l.InboxOff(int(n))), Word(msg.src))
			m.Write(dbase+int64(l.InboxOff(int(n)))+1, msg.payload)
			m.Write(dbase+int64(l.InCountOff()), n+1)
		}
		if d := m.Cost() - before; d > maxDelta {
			maxDelta = d
		}
	}
	if ovf.dest >= 0 {
		return fmt.Errorf("selfsim: program %q superstep %d: %w", s.prog.Name, index, l.InboxOverflow(ovf.dest))
	}
	s.moduleCost += maxDelta
	s.ledger.Charge(frame, "place", maxDelta)
	if s.obs.Tracing() {
		s.obs.Emit(obs.Event{Sim: "self", Kind: "global-step", Step: index,
			Label: st.Label, N: int64(h), Cost: s.moduleCost + s.commCost - costBefore})
	}
	return nil
}
