package dbsp

import "fmt"

// Layout fixes how a processor's µ-word context is arranged. The same
// layout is used by the engine (contexts in Go slices) and by the
// sequential simulators (contexts as µ-word blocks of HMM/BT
// memory), so that a handler's Load/Store/Send/Recv operations have
// identical semantics everywhere. Message buffers are part of the
// context, as the model prescribes ("buffers for incoming and outgoing
// messages are provided as part of the processor's local memory").
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

// Store abstracts the word storage a context lives in, so the same
// context logic runs over a Go slice (the engine), an HMM machine
// (hmmsim), a BT machine (btsim) or an HMM memory module (selfsim).
// Implementations charge their own model costs per operation. Offsets
// are context-relative: [0, µ).
type Store interface {
	// Load returns context word off.
	Load(off int) Word
	// Put sets context word off.
	Put(off int, v Word)
	// Work charges n units of pure computation.
	Work(n int64)
}

// sliceStore is the engine's store: a context slice plus an operation
// counter that measures τ, the local computation time.
type sliceStore struct {
	mem []Word
	ops int64
}

func (s *sliceStore) Load(off int) Word   { s.ops++; return s.mem[off] }
func (s *sliceStore) Put(off int, v Word) { s.ops++; s.mem[off] = v }
func (s *sliceStore) Work(n int64)        { s.ops += n }

// NewCtx wraps a Store in the handler-facing context view. It is the
// hook the sequential simulators use to execute guest handlers against
// contexts living in simulated hierarchical memory.
func NewCtx(st Store, layout Layout, id, v, label int) *Ctx {
	return &Ctx{st: st, layout: layout, id: id, v: v, label: label}
}

// Ctx is the view a superstep handler has of its processor: local
// memory plus message primitives. Handlers must be deterministic
// functions of the context contents — the sequential simulators
// re-execute them processor by processor in cluster-schedule order. A
// Ctx is valid only for the handler call it is passed to: the engine
// reuses one Ctx for every processor of a shard.
type Ctx struct {
	st     Store
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
	if i < 0 || i >= c.layout.Data {
		panic(fmt.Sprintf("dbsp: proc %d: Load(%d) outside data region [0,%d)", c.id, i, c.layout.Data))
	}
	return c.st.Load(i)
}

// Store sets data word i to val.
func (c *Ctx) Store(i int, val Word) {
	if i < 0 || i >= c.layout.Data {
		panic(fmt.Sprintf("dbsp: proc %d: Store(%d) outside data region [0,%d)", c.id, i, c.layout.Data))
	}
	c.st.Put(i, val)
}

// Work charges n extra units of local computation beyond the memory
// operations already counted.
func (c *Ctx) Work(n int64) {
	if n < 0 {
		panic("dbsp: negative work")
	}
	c.st.Work(n)
}

// Send queues a constant-size message to processor dest, which must lie
// in the sender's current cluster (an i-superstep may only communicate
// within i-clusters). It panics on cluster violations and outbox
// overflow — both are bugs in the program, not runtime conditions.
func (c *Ctx) Send(dest int, payload Word) {
	if dest < 0 || dest >= c.v {
		panic(fmt.Sprintf("dbsp: proc %d: Send to invalid processor %d", c.id, dest))
	}
	if !SameCluster(c.v, c.label, c.id, dest) {
		panic(fmt.Sprintf("dbsp: proc %d: Send to %d crosses %d-cluster boundary", c.id, dest, c.label))
	}
	n := int(c.st.Load(c.layout.OutCountOff()))
	if n >= c.layout.MaxMsgs {
		panic(fmt.Sprintf("dbsp: proc %d: outbox overflow (MaxMsgs=%d)", c.id, c.layout.MaxMsgs))
	}
	c.st.Put(c.layout.OutboxOff(n), Word(dest))
	c.st.Put(c.layout.OutboxOff(n)+1, payload)
	c.st.Put(c.layout.OutCountOff(), Word(n+1))
}

// NumRecv returns the number of messages delivered by the previous
// superstep.
func (c *Ctx) NumRecv() int { return int(c.st.Load(c.layout.InCountOff())) }

// Recv returns received message k: its sender and payload. Messages are
// ordered by ascending sender id (and send order within a sender) —
// identical in the engine and in every simulator.
func (c *Ctx) Recv(k int) (src int, payload Word) {
	n := c.NumRecv()
	if k < 0 || k >= n {
		panic(fmt.Sprintf("dbsp: proc %d: Recv(%d) with %d messages", c.id, k, n))
	}
	return int(c.st.Load(c.layout.InboxOff(k))), c.st.Load(c.layout.InboxOff(k) + 1)
}
