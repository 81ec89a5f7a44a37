package dbsp

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/obs"
)

// MessageTrace records one routed message.
type MessageTrace struct {
	Src, Dest int
	Payload   Word
}

// StepTrace records one executed superstep's traffic.
type StepTrace struct {
	// Index and Label identify the superstep.
	Index, Label int
	// Messages lists every message routed at the superstep boundary, in
	// delivery order.
	Messages []MessageTrace
}

// Trace is the communication record of a native run, the raw material
// for locality analysis: how far (in cluster levels) each message
// actually travelled, independent of the labels the program declared.
type Trace struct {
	V     int
	Steps []StepTrace
}

// RunTraced executes prog like Run while recording every routed
// message.
func RunTraced(prog *Program, g cost.Func) (*Result, *Trace, error) {
	return RunObserved(prog, g, nil)
}

// RunObserved executes prog like Run while recording every routed
// message and, when o is non-nil, publishing the run's accounting to
// the observability layer: the per-label superstep histogram
// (dbsp.lambda.label.<i> — the λ_i of the Theorem 5/12 formulas),
// message volume, h-relation degrees, the computation/communication
// cost split, and one "superstep" trace event per executed superstep.
func RunObserved(prog *Program, g cost.Func, o *obs.Observer) (*Result, *Trace, error) {
	return RunShardedObserved(prog, g, 0, o)
}

// publishRun copies a finished run's accounting into the registry and
// emits per-superstep events. Each superstep charges its work τ to the
// compute phase and its h·g term to comm, under its label's profile
// frame, in step order — Result.CommCost's own fold, so on a fresh
// registry dbsp.cost.comm equals CommCost exactly. The total is copied
// verbatim (dbsp.cost.total is exactly Result.Cost).
func publishRun(o *obs.Observer, prog *Program, res *Result, tr *Trace) {
	o.Counter("dbsp.supersteps").Add(int64(len(res.Steps)))
	ledger := o.Ledger("dbsp", "compute", "comm")
	ledger.Total(res.Cost)
	o.Gauge("dbsp.v").Set(int64(prog.V))
	o.Gauge("dbsp.mu").Set(int64(prog.Mu()))
	hHist := o.Histogram("dbsp.h.per.step")
	for i, sc := range res.Steps {
		frame := obs.LabelFrame(sc.Label)
		ledger.Charge(frame, "compute", float64(sc.Tau))
		ledger.Charge(frame, "comm", sc.Cost-float64(sc.Tau))
		o.Counter(fmt.Sprintf("dbsp.lambda.label.%d", sc.Label)).Inc()
		hHist.Observe(int64(sc.H))
		o.Emit(obs.Event{Sim: "dbsp", Kind: "superstep", Step: i, Label: sc.Label,
			N: int64(sc.H), Cost: sc.Cost})
	}
	var msgs int64
	msgHist := o.Histogram("dbsp.msgs.per.step")
	for _, st := range tr.Steps {
		msgs += int64(len(st.Messages))
		msgHist.Observe(int64(len(st.Messages)))
	}
	o.Counter("dbsp.messages").Add(msgs)
}

// LocalityLevel returns the label of the finest cluster containing both
// processors: the "distance" a message travels in hierarchy levels
// (log v = same processor, 0 = opposite machine halves).
func LocalityLevel(v, a, b int) int {
	level := Log2(v)
	for level > 0 && !SameCluster(v, level, a, b) {
		level--
	}
	return level
}

// LocalityHistogram counts the trace's messages by the finest common
// cluster level of their endpoints. Index i holds the messages whose
// endpoints share an i-cluster but no finer one.
func (t *Trace) LocalityHistogram() []int64 {
	hist := make([]int64, Log2(t.V)+1)
	for _, st := range t.Steps {
		for _, m := range st.Messages {
			hist[LocalityLevel(t.V, m.Src, m.Dest)]++
		}
	}
	return hist
}

// Slack measures how tightly the program's superstep labels match its
// actual traffic: for every message, the difference between the finest
// common cluster level of its endpoints and the superstep's label
// (0 = the label is exactly as fine as the message allows). The return
// is the message-weighted average slack; large values mean the program
// declares coarser supersteps than its communication requires, leaving
// submachine locality unexposed.
func (t *Trace) Slack() float64 {
	var total, count float64
	for _, st := range t.Steps {
		for _, m := range st.Messages {
			total += float64(LocalityLevel(t.V, m.Src, m.Dest) - st.Label)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / count
}

// Messages returns the total routed message count.
func (t *Trace) Messages() int64 {
	var n int64
	for _, st := range t.Steps {
		n += int64(len(st.Messages))
	}
	return n
}

// FormatHistogram renders the locality histogram as an aligned text
// block with one row per level and a proportional bar.
func (t *Trace) FormatHistogram() string {
	hist := t.LocalityHistogram()
	var max int64 = 1
	for _, h := range hist {
		if h > max {
			max = h
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %10s  (finest common cluster of message endpoints)\n", "level", "messages")
	for i, h := range hist {
		bar := strings.Repeat("#", int(40*h/max))
		fmt.Fprintf(&b, "%6d %10d  %s\n", i, h, bar)
	}
	return b.String()
}

// engineLoop is the loop behind every entry point: pre receives each
// executed superstep's outbox snapshot before delivery, post receives
// the contexts right after delivery (inboxes still hold the delivered
// messages). The engine-side Transpose verification is skipped when
// post is set — an inspector that wants to observe a corrupted route
// end-to-end validates declarations itself. The engine state is built
// only after the program validates, so Init never runs for a rejected
// program. The cost fold lives here once: each step's Tau and H
// produce sc.Cost in step order, so runs that agree on the integers
// agree on every charged float64 bit for bit.
func engineLoop(prog *Program, g cost.Func, shards int,
	pre func(step, label int, msgs []MessageTrace),
	post func(step int, st Superstep, ctxs [][]Word)) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("dbsp: nil bandwidth function")
	}
	e := newShardEngine(prog, shards)
	ctxs := e.ctxs
	res := &Result{Contexts: ctxs}
	for s, st := range prog.Steps {
		var collect func()
		if pre != nil && st.Run != nil {
			step, label := s, st.Label
			collect = func() {
				pre(step, label, collectOutboxes(prog.Layout, ctxs))
			}
		}
		sc, err := e.runStep(st, collect, post == nil)
		if err != nil {
			return nil, fmt.Errorf("dbsp: program %q superstep %d: %w", prog.Name, s, err)
		}
		if post != nil && st.Run != nil {
			post(s, st, ctxs)
		}
		sc.Cost = float64(sc.Tau) + float64(sc.H)*CommCost(g, prog.Mu(), prog.V, st.Label)
		res.Steps = append(res.Steps, sc)
		res.Cost += sc.Cost
		if sc.Tau > res.MaxTau {
			res.MaxTau = sc.Tau
		}
	}
	return res, nil
}

// collectOutboxes snapshots every queued message in delivery order.
func collectOutboxes(l Layout, ctxs [][]Word) []MessageTrace {
	var msgs []MessageTrace
	for p, ctx := range ctxs {
		sent := int(ctx[l.OutCountOff()])
		for k := 0; k < sent; k++ {
			msgs = append(msgs, MessageTrace{
				Src:     p,
				Dest:    int(ctx[l.OutboxOff(k)]),
				Payload: ctx[l.OutboxOff(k)+1],
			})
		}
	}
	return msgs
}
