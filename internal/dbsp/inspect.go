package dbsp

import (
	"repro/internal/cost"
	"repro/internal/obs"
)

// StepEvent is the post-delivery view of one executed superstep that
// RunShardedInspected hands to its inspector: the superstep's identity,
// its Transpose declaration (if any), the messages the handlers queued
// before delivery and the messages actually delivered. Dummy
// supersteps (nil Run) carry no traffic and produce no event.
type StepEvent struct {
	// Step is the superstep index in Program.Steps; Label its cluster
	// granularity.
	Step, Label int
	// Transpose is the superstep's declaration, nil for ordinary
	// supersteps.
	Transpose *TransposeRoute
	// Sent snapshots the outboxes before delivery, in delivery order
	// (ascending sender, send order preserved within a sender).
	Sent []MessageTrace
	// Received lists the inbox contents after delivery, in ascending
	// receiver order.
	Received []MessageTrace
}

// RunShardedInspected executes prog like RunShardedObserved while
// handing every executed superstep to inspect right after message
// delivery. When an inspector is set, the engine's own Transpose
// verification is disabled so the inspector observes declaration
// violations end-to-end instead of the run aborting first — the
// runtime invariant checker (internal/invariant) builds on this. A nil
// inspect behaves exactly like RunShardedObserved. shards <= 0 selects
// the default shard count.
func RunShardedInspected(prog *Program, g cost.Func, shards int, o *obs.Observer, inspect func(StepEvent)) (*Result, *Trace, error) {
	tr := &Trace{V: prog.V}
	var sent []MessageTrace
	pre := func(step, label int, msgs []MessageTrace) {
		tr.Steps = append(tr.Steps, StepTrace{Index: step, Label: label, Messages: msgs})
		sent = msgs
	}
	var post func(step int, st Superstep, ctxs [][]Word)
	if inspect != nil {
		post = func(step int, st Superstep, ctxs [][]Word) {
			inspect(StepEvent{Step: step, Label: st.Label, Transpose: st.Transpose,
				Sent: sent, Received: collectInboxes(prog.Layout, ctxs)})
			sent = nil
		}
	}
	res, err := engineLoop(prog, g, shards, pre, post)
	if err != nil {
		return nil, nil, err
	}
	if o != nil {
		publishRun(o, prog, res, tr)
	}
	return res, tr, nil
}

// collectInboxes snapshots every delivered message in ascending
// receiver order.
func collectInboxes(l Layout, ctxs [][]Word) []MessageTrace {
	var msgs []MessageTrace
	for p, ctx := range ctxs {
		n := int(ctx[l.InCountOff()])
		for k := 0; k < n; k++ {
			msgs = append(msgs, MessageTrace{
				Src:     int(ctx[l.InboxOff(k)]),
				Dest:    p,
				Payload: ctx[l.InboxOff(k)+1],
			})
		}
	}
	return msgs
}
