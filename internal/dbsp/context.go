package dbsp

import (
	"fmt"

	"repro/internal/hmm"
)

// Layout fixes how a processor's µ-word context is arranged. The same
// layout is used by the engine (contexts in Go slices) and by the
// sequential simulators (contexts as µ-word windows of HMM/BT memory),
// so that a handler's Load/Store/Send/Recv operations have identical
// semantics everywhere. Message buffers are part of the context, as
// the model prescribes ("buffers for incoming and outgoing messages
// are provided as part of the processor's local memory").
//
// Word offsets within a context:
//
//	[0, Data)                    user data region
//	[Data]                       inbox count
//	[Data+1, Data+1+2Q)          inbox entries: (src, payload) pairs
//	[Data+1+2Q]                  outbox count
//	[Data+2+2Q, Data+2+4Q)       outbox entries: (dest, payload) pairs
//
// where Q = MaxMsgs, giving Mu = Data + 4Q + 2.
type Layout struct {
	// Data is the number of user data words.
	Data int
	// MaxMsgs is the per-superstep capacity Q of both inbox and
	// outbox. The model requires h <= µ; the layout enforces Q
	// structurally.
	MaxMsgs int
}

// Mu returns the context size in words.
func (l Layout) Mu() int { return l.Data + 4*l.MaxMsgs + 2 }

// InCountOff returns the offset of the inbox count word.
func (l Layout) InCountOff() int { return l.Data }

// InboxOff returns the offset of inbox entry k (its src word; payload at +1).
func (l Layout) InboxOff(k int) int { return l.Data + 1 + 2*k }

// OutCountOff returns the offset of the outbox count word.
func (l Layout) OutCountOff() int { return l.Data + 1 + 2*l.MaxMsgs }

// OutboxOff returns the offset of outbox entry k.
func (l Layout) OutboxOff(k int) int { return l.Data + 2 + 2*l.MaxMsgs + 2*k }

// InboxOverflow is the error for a message to processor dest that
// finds dest's inbox full: one text for the engine and every simulator.
func (l Layout) InboxOverflow(dest int) error {
	return fmt.Errorf("inbox overflow at processor %d (MaxMsgs=%d)", dest, l.MaxMsgs)
}

// Validate checks the layout bounds.
func (l Layout) Validate() error {
	if l.Data < 0 {
		return fmt.Errorf("dbsp: negative data region %d", l.Data)
	}
	if l.MaxMsgs < 0 {
		return fmt.Errorf("dbsp: negative message capacity %d", l.MaxMsgs)
	}
	return nil
}

// Ctx is the view a superstep handler has of its processor: local
// memory plus message primitives. Handlers must be deterministic
// functions of the context contents — the sequential simulators
// re-execute them processor by processor in cluster-schedule order. A
// Ctx is valid only for the handler call it is passed to: the engine
// reuses one Ctx for every processor of a shard, and a simulator one
// for every processor it runs (see Guest).
//
// A Ctx has one of two backings. The engine's is the processor's
// context slice, with τ (one unit per word accessed, plus Work) counted
// on the Ctx. A simulator's is the window [base, base+µ) of a host HMM
// machine (a BT machine's embedded HMM, or a selfsim memory module),
// which charges every access and Work unit. Each accessor branches once
// on its backing. Load, Store and NumRecv inline into the handler, so on
// the engine a data word in range, or the inbox count, costs one bounds
// test, one slice access and one op; anything else — a simulator
// window, or an index outside the data region, which panics — goes to
// one out-of-line helper. Keep the three under the inlining budget: CI
// fails when go build -gcflags=-m stops reporting them inlinable. Recv
// and Send stay out of line and touch the engine slice or the host
// machine directly, in the same word order on both backings; each
// backing keeps every check and its panic text.
type Ctx struct {
	data   []Word       // engine backing: the context's data region; nil for a window
	mem    []Word       // engine backing: the processor's context
	ops    int64        // engine backing: τ so far
	m      *hmm.Machine // simulator backing, nil for the engine
	base   int64        // simulator backing: the window's first address in m
	layout Layout
	id     int // processor id
	v      int // machine size
	label  int // current superstep label, for send validation
}

// ID returns the processor id in [0, V).
func (c *Ctx) ID() int { return c.id }

// V returns the machine size.
func (c *Ctx) V() int { return c.v }

// Label returns the current superstep's cluster label.
func (c *Ctx) Label() int { return c.label }

// Load returns data word i.
func (c *Ctx) Load(i int) Word {
	if uint(i) < uint(len(c.data)) {
		c.ops++
		return c.data[i]
	}
	return c.loadChecked(i)
}

// loadChecked is Load's out-of-line path: a simulator window, whose
// data is nil, or an engine index outside the data region, which panics.
func (c *Ctx) loadChecked(i int) Word {
	if i < 0 || i >= c.layout.Data {
		panic(fmt.Sprintf("dbsp: proc %d: Load(%d) outside data region [0,%d)", c.id, i, c.layout.Data))
	}
	return c.m.Read(c.base + int64(i))
}

// Store sets data word i to val.
func (c *Ctx) Store(i int, val Word) {
	if uint(i) < uint(len(c.data)) {
		c.ops++
		c.data[i] = val
	} else {
		c.storeChecked(i, val)
	}
}

// storeChecked is Store's counterpart of loadChecked.
func (c *Ctx) storeChecked(i int, val Word) {
	if i < 0 || i >= c.layout.Data {
		panic(fmt.Sprintf("dbsp: proc %d: Store(%d) outside data region [0,%d)", c.id, i, c.layout.Data))
	}
	c.m.Write(c.base+int64(i), val)
}

// Work charges n extra units of local computation beyond the memory
// operations already counted.
func (c *Ctx) Work(n int64) {
	if n < 0 {
		panic("dbsp: negative work")
	}
	if c.m != nil {
		c.m.ChargeOps(n)
		return
	}
	c.ops += n
}

// Send queues a constant-size message to processor dest, which must lie
// in the sender's current cluster (an i-superstep may only communicate
// within i-clusters). It panics on cluster violations and outbox
// overflow — both are bugs in the program, not runtime conditions. It
// reads the outbox count, then writes the entry's dest and payload
// words and the new count: τ 4 on the engine.
func (c *Ctx) Send(dest int, payload Word) {
	if dest < 0 || dest >= c.v {
		panic(fmt.Sprintf("dbsp: proc %d: Send to invalid processor %d", c.id, dest))
	}
	if !SameCluster(c.v, c.label, c.id, dest) {
		panic(fmt.Sprintf("dbsp: proc %d: Send to %d crosses %d-cluster boundary", c.id, dest, c.label))
	}
	count := c.layout.OutCountOff()
	if c.m == nil {
		n := int(c.mem[count])
		if n >= c.layout.MaxMsgs {
			panic(fmt.Sprintf("dbsp: proc %d: outbox overflow (MaxMsgs=%d)", c.id, c.layout.MaxMsgs))
		}
		off := c.layout.OutboxOff(n)
		c.mem[off], c.mem[off+1], c.mem[count] = Word(dest), payload, Word(n+1)
		c.ops += 4
		return
	}
	a := c.base + int64(count)
	n := int(c.m.Read(a))
	if n >= c.layout.MaxMsgs {
		panic(fmt.Sprintf("dbsp: proc %d: outbox overflow (MaxMsgs=%d)", c.id, c.layout.MaxMsgs))
	}
	entry := c.base + int64(c.layout.OutboxOff(n))
	c.m.Write(entry, Word(dest))
	c.m.Write(entry+1, payload)
	c.m.Write(a, Word(n+1))
}

// NumRecv returns the number of messages delivered by the previous
// superstep.
func (c *Ctx) NumRecv() int {
	if c.m == nil {
		c.ops++
		return int(c.mem[c.layout.InCountOff()])
	}
	return c.numRecvWindow()
}

// numRecvWindow is NumRecv for a simulator window. It stays out of line
// so that NumRecv fits the inlining budget.
//
//go:noinline
func (c *Ctx) numRecvWindow() int {
	return int(c.m.Read(c.base + int64(c.layout.InCountOff())))
}

// Recv returns received message k: its sender and payload. Messages are
// ordered by ascending sender id (and send order within a sender) —
// identical in the engine and in every simulator. It reads the inbox
// count, then the entry's src and payload words: τ 3 on the engine.
func (c *Ctx) Recv(k int) (src int, payload Word) {
	count, off := c.layout.InCountOff(), c.layout.InboxOff(k)
	if c.m == nil {
		if n := int(c.mem[count]); k < 0 || k >= n {
			panic(fmt.Sprintf("dbsp: proc %d: Recv(%d) with %d messages", c.id, k, n))
		}
		c.ops += 3
		return int(c.mem[off]), c.mem[off+1]
	}
	if n := int(c.m.Read(c.base + int64(count))); k < 0 || k >= n {
		panic(fmt.Sprintf("dbsp: proc %d: Recv(%d) with %d messages", c.id, k, n))
	}
	a := c.base + int64(off)
	return int(c.m.Read(a)), c.m.Read(a + 1)
}

// catch, deferred around a loop of handler calls, turns a handler panic
// (how Ctx reports a model violation) into *err naming c's processor.
func (c *Ctx) catch(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("processor %d: handler panic: %v", c.id, r)
	}
}

// A Guest runs a simulator's handler calls: it owns one Ctx and rebinds
// it to each processor's context in host memory, so a handler call
// allocates nothing. A handler sees only the Ctx, so it cannot rebind it.
type Guest struct{ c Ctx }

// NewGuest returns a Guest for a v-processor machine whose contexts
// have the given layout.
func NewGuest(layout Layout, v int) *Guest {
	return &Guest{c: Ctx{layout: layout, v: v}}
}

// Run calls run as processor id of a label-superstep, the processor's
// context being the window [base, base+µ) of m.
func (g *Guest) Run(run func(*Ctx), m *hmm.Machine, base int64, id, label int) {
	g.c.m, g.c.base, g.c.id, g.c.label = m, base, id, label
	run(&g.c)
}

// RunBlocks calls run, in ascending order, for the n processors first,
// first+1, … whose contexts are the consecutive µ-word blocks of m from
// address 0. A handler panic ends the loop and returns as an error
// naming the processor.
func (g *Guest) RunBlocks(run func(*Ctx), m *hmm.Machine, first, n, label int) (err error) {
	defer g.c.catch(&err)
	for k := 0; k < n; k++ {
		g.Run(run, m, int64(k*g.c.layout.Mu()), first+k, label)
	}
	return nil
}

// Catch calls fn, a loop of Run calls, and returns a handler panic in
// it as an error naming the processor Run last bound.
func (g *Guest) Catch(fn func()) (err error) {
	defer g.c.catch(&err)
	fn()
	return nil
}
