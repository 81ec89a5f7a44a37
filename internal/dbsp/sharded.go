package dbsp

import (
	"runtime"
	"sync"

	"repro/internal/cost"
	"repro/internal/obs"
)

// The engine executes a D-BSP program by multiplexing its v
// processors — lightweight contexts — over a few shards, each shard
// owning a contiguous range of processor ids backed by its own arena.
// Per superstep it runs two barriers — a handler pass, which also
// copies the messages that leave their shard into per-destination-shard
// buckets, then a delivery pass, which fills each shard's inboxes from
// the lower shards' buckets, its own outboxes read in place, and the
// higher shards' buckets — and accumulates τ and errors shard-locally
// instead of in per-processor slices. A message that stays inside its
// shard is never copied anywhere but into its inbox, so at one shard
// the exchange is one copy-free scan of the outboxes. One shard runs
// inline on the caller's goroutine, so the default count (ShardCount)
// gives small machines a sequential loop and spreads big ones over
// GOMAXPROCS shards.
//
// No shard count changes a result, by construction rather than by
// tolerance: τ is a max over per-processor int64 ops (order
// independent), h is a max over per-processor int sent/received counts
// (order independent), errors reduce to the lowest processor id
// (shards own ascending contiguous ranges, so the ascending-shard
// reduction finds the processor an ascending scan of all v would), and
// the exchange fills every inbox in the sequential discipline the
// simulators replicate — ascending sender, send order kept within a
// sender. The only floating-point arithmetic — the cost fold
// sc.Cost = float64(Tau) + float64(H)·g(µ·v/2^i) accumulated in step
// order — lives once in engineLoop. Runs that agree on every integer
// therefore agree on every charged float64, bit for bit. The tests
// hold the exchange to a sequential reference delivery and the
// differential fuzz test in internal/core holds every shard count to a
// one-shard run and to the three simulators.

// minShardProcs is the fewest processors a shard gets at the default
// shard count. Every superstep fans each shard out twice (the handler
// pass, then the delivery pass); below this many processors per shard
// those fan-outs cost more than the handler work they spread. Measured
// on a 2-vCPU host when a superstep still had three fan-outs, and kept
// (DESIGN.md §11). It stays at most 2^16 so a 2^17-processor machine
// still splits over two shards.
const minShardProcs = 1 << 12

// ShardCount resolves a requested shard count for a v-processor run.
// Values <= 0 select the default: one shard per minShardProcs
// processors, at most GOMAXPROCS — so a machine smaller than
// 2·minShardProcs is one inline shard. The result is clamped to
// [1, v], so shards > v degrades to one processor per shard rather
// than empty shards.
func ShardCount(shards, v int) int {
	if shards <= 0 {
		shards = min(runtime.GOMAXPROCS(0), v/minShardProcs)
	}
	return max(1, min(shards, v))
}

// newContextsChunked allocates the v contexts of prog in arenas of at
// most chunk contexts each and applies Init in ascending processor
// order — the exact initial state NewContexts produces, carved from
// per-chunk backing slices instead of one flat v·µ slab. At v = 2^20 a
// single slab is a multi-hundred-megabyte allocation the Go heap must
// find contiguously; per-shard arenas keep each allocation proportional
// to v/shards.
func newContextsChunked(prog *Program, chunk int) [][]Word {
	mu := prog.Mu()
	v := prog.V
	ctxs := make([][]Word, v)
	for lo := 0; lo < v; lo += chunk {
		hi := min(lo+chunk, v)
		arena := make([]Word, (hi-lo)*mu)
		for p := lo; p < hi; p++ {
			off := (p - lo) * mu
			ctxs[p] = arena[off : off+mu : off+mu]
			if prog.Init != nil {
				prog.Init(p, ctxs[p][:prog.Layout.Data])
			}
		}
	}
	return ctxs
}

// NewContextsSharded allocates and initialises the contexts of prog in
// per-shard arenas: shard s owns the contiguous processor range
// [s·chunk, (s+1)·chunk) and its contexts share one backing slice.
// Word-for-word the same initial state as NewContexts.
func NewContextsSharded(prog *Program, shards int) [][]Word {
	shards = ShardCount(shards, prog.V)
	chunk := (prog.V + shards - 1) / shards
	return newContextsChunked(prog, chunk)
}

// overflow records the first (lowest sender, lowest send index) inbox
// overflow a destination shard observed during delivery.
type overflow struct {
	ok             bool
	src, idx, dest int
}

// shardEngine is the per-run state of an execution: the context arenas
// plus shard-local accumulators reused across supersteps. Shard s owns
// processors [s·chunk, min((s+1)·chunk, v)).
type shardEngine struct {
	prog   *Program
	ctxs   [][]Word
	chunk  int // processors per shard (last shard may be short)
	shards int // effective shard count: ceil(V/chunk)

	// Handler-pass accumulators, one entry per shard: the shard's τ
	// (max ops over its processors), its max messages sent by one
	// processor and its first handler error, which names the processor
	// that raised it. O(shards), not O(v), reduced after the barrier.
	taus    []int64
	sentMax []int
	errs    []error

	// Delivery-pass accumulators, one entry per shard.
	recvMax []int // max messages received by one of the shard's processors
	ovf     []overflow

	// out[s][d] is shard s's outgoing bucket for another destination
	// shard d: flat (src, idx, dest, payload) records in ascending
	// (src, idx) order, filled in the handler pass and reused across
	// supersteps via [:0]. idx is the message's send index within its
	// sender's outbox — with src it ranks messages in the global
	// delivery-scan order (ascending sender, then send order), which is
	// what makes cross-shard overflow reporting exact. out[s][s] stays
	// empty: a message that stays inside its shard is read from its
	// sender's outbox in the delivery pass.
	out [][][]Word
}

func newShardEngine(prog *Program, shards int) *shardEngine {
	shards = ShardCount(shards, prog.V)
	chunk := (prog.V + shards - 1) / shards
	shards = (prog.V + chunk - 1) / chunk // drop shards the rounding left empty
	e := &shardEngine{
		prog:    prog,
		ctxs:    newContextsChunked(prog, chunk),
		chunk:   chunk,
		shards:  shards,
		taus:    make([]int64, shards),
		errs:    make([]error, shards),
		sentMax: make([]int, shards),
		recvMax: make([]int, shards),
		ovf:     make([]overflow, shards),
		out:     make([][][]Word, shards),
	}
	for s := range e.out {
		e.out[s] = make([][]Word, shards)
	}
	return e
}

// span returns shard s's processor range [lo, hi).
func (e *shardEngine) span(s int) (lo, hi int) {
	lo = s * e.chunk
	hi = min(lo+e.chunk, e.prog.V)
	return lo, hi
}

// parallel runs fn once per shard and barriers. One shard runs inline
// — the engine at shards=1 is a sequential loop with zero goroutine
// overhead.
func (e *shardEngine) parallel(fn func(s int)) {
	if e.shards == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < e.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	wg.Wait()
}

// runStep executes one superstep: the handler pass in parallel over
// shards, the optional Transpose verification and pre-delivery
// observer, then the delivery pass.
func (e *shardEngine) runStep(st Superstep, collect func(), verify bool) (StepCost, error) {
	sc := StepCost{Label: st.Label}
	if st.Run == nil {
		return sc, nil // dummy superstep: no computation, no messages
	}

	e.parallel(func(s int) { e.handleShard(s, st.Label, st.Run) })
	for s := 0; s < e.shards; s++ {
		if err := e.errs[s]; err != nil {
			// Ascending shards own ascending processor ranges, so the
			// first erroring shard holds the lowest erroring
			// processor, whatever the shard count.
			return sc, err
		}
		sc.Tau = max(sc.Tau, e.taus[s])
	}

	if verify && st.Transpose != nil {
		if err := verifyTranspose(e.prog, e.ctxs, st); err != nil {
			return sc, err
		}
	}
	if collect != nil {
		collect()
	}

	h, err := e.exchange()
	if err != nil {
		return sc, err
	}
	sc.H = h
	return sc, nil
}

// handleShard is the handler pass for shard s. It walks the shard's
// processors in ascending order, folding ops and sent counts into
// shard-local maxima — the hot loop touches no shared slice. One Ctx
// serves all of the shard's processors, reset per processor: a handler
// cannot keep its Ctx (stepconfine rejects a Run closure that writes a
// captured variable), so the reuse is unobservable and saves a heap
// object per processor per superstep. Right after a processor's
// handler returns, its inbox count is cleared (inboxes are written only
// in the delivery pass, after the barrier) and its messages to other
// shards are appended to the shard's buckets; its outbox keeps every
// message, for the observers and for the delivery pass to read in
// place. A handler panic — the way Ctx reports a model violation —
// stops the shard and is recorded as an error naming the processor
// that raised it.
func (e *shardEngine) handleShard(s, label int, run func(*Ctx)) {
	l := e.prog.Layout
	lo, hi := e.span(s)
	buckets := e.out[s]
	for d := range buckets {
		buckets[d] = buckets[d][:0]
	}
	c := &Ctx{layout: l, v: e.prog.V, label: label}
	var tau int64
	maxSent := 0
	e.errs[s] = nil
	defer c.catch(&e.errs[s])
	for p := lo; p < hi; p++ {
		ctx := e.ctxs[p]
		c.data, c.mem, c.ops, c.id = ctx[:l.Data], ctx, 0, p
		run(c)
		tau = max(tau, c.ops)
		ctx[l.InCountOff()] = 0
		sent := int(ctx[l.OutCountOff()])
		maxSent = max(maxSent, sent)
		if e.shards == 1 {
			continue // every destination is in this shard
		}
		for k := 0; k < sent; k++ {
			if dest := int(ctx[l.OutboxOff(k)]); dest < lo || dest >= hi {
				d := dest / e.chunk
				buckets[d] = append(buckets[d], Word(p), Word(k), Word(dest), ctx[l.OutboxOff(k)+1])
			}
		}
	}
	e.taus[s], e.sentMax[s] = tau, maxSent
}

// exchange is the delivery pass and its reduction. Every shard fills
// its own inboxes (deliverShard) and clears its own outbox counts, so
// the pass writes only shard-owned state and parallelises freely; the
// barrier after the handler pass is the only synchronisation. h and
// the overflow report reduce afterwards to exactly what one sequential
// scan of all v outboxes produces (see the bit-identity argument at
// the top of the file).
func (e *shardEngine) exchange() (h int, err error) {
	e.parallel(e.deliverShard)
	for s := 0; s < e.shards; s++ {
		h = max(h, e.sentMax[s], e.recvMax[s])
	}
	first := overflow{}
	for s := 0; s < e.shards; s++ {
		o := e.ovf[s]
		if !o.ok {
			continue
		}
		if !first.ok || o.src < first.src || (o.src == first.src && o.idx < first.idx) {
			first = o
		}
	}
	if first.ok {
		// Whether a message overflows depends only on how many earlier
		// messages (in the global scan order) target the same
		// processor — never on messages to other processors — so the
		// minimal-(src, idx) overflow across shards is precisely the
		// one a sequential scan hits first.
		return 0, e.prog.Layout.InboxOverflow(first.dest)
	}
	return h, nil
}

// deliverShard is the delivery pass for shard d: it walks the source
// shards in ascending order, appending another shard's bucket for d
// and, at its own position, reading its own processors' outboxes in
// place — keeping the messages addressed inside the shard and clearing
// the outbox counts. Every source yields ascending (src, idx) order and
// the sources own ascending processor ranges, so the concatenated
// stream is the sequential delivery order restricted to this shard's
// processors. The received maximum folds as the inbox counts grow. On
// the first overflow the shard records the offender and stops; the
// cross-shard reduction in exchange picks the global first.
func (e *shardEngine) deliverShard(d int) {
	l := e.prog.Layout
	lo, hi := e.span(d)
	e.ovf[d] = overflow{}
	maxRecv := 0
	for s := 0; s < e.shards; s++ {
		if s != d {
			rec := e.out[s][d]
			for i := 0; i < len(rec); i += 4 {
				src, dest := int(rec[i]), int(rec[i+2])
				n := e.push(dest, src, rec[i+3])
				if n == 0 {
					e.ovf[d] = overflow{ok: true, src: src, idx: int(rec[i+1]), dest: dest}
					return
				}
				maxRecv = max(maxRecv, n)
			}
			continue
		}
		for p := lo; p < hi; p++ {
			ctx := e.ctxs[p]
			sent := int(ctx[l.OutCountOff()])
			for k := 0; k < sent; k++ {
				dest := int(ctx[l.OutboxOff(k)])
				if dest < lo || dest >= hi {
					continue // went into a bucket in the handler pass
				}
				n := e.push(dest, p, ctx[l.OutboxOff(k)+1])
				if n == 0 {
					e.ovf[d] = overflow{ok: true, src: p, idx: k, dest: dest}
					return
				}
				maxRecv = max(maxRecv, n)
			}
			ctx[l.OutCountOff()] = 0
		}
	}
	e.recvMax[d] = maxRecv
}

// push appends the message (src, payload) to dest's inbox and returns
// the inbox's new count, or 0 when the inbox is already full.
func (e *shardEngine) push(dest, src int, payload Word) int {
	l := e.prog.Layout
	dctx := e.ctxs[dest]
	count := l.InCountOff()
	n := int(dctx[count])
	if n >= l.MaxMsgs {
		return 0
	}
	off := l.InboxOff(n)
	dctx[off], dctx[off+1], dctx[count] = Word(src), payload, Word(n+1)
	return n + 1
}

// RunSharded executes prog at the given shard count (<= 0 selects the
// default, see ShardCount; counts above v clamp to v). The result —
// final contexts, per-step costs, total cost, error text — is
// bit-identical at every shard count; only the execution strategy
// differs.
func RunSharded(prog *Program, g cost.Func, shards int) (*Result, error) {
	return engineLoop(prog, g, shards, nil, nil)
}

// RunShardedObserved is RunObserved at the given shard count: it
// records the full message trace and, when o is non-nil, publishes the
// run's accounting. Note the trace snapshot is O(messages) per
// superstep — at very large v prefer RunSharded unless the trace is
// needed.
func RunShardedObserved(prog *Program, g cost.Func, shards int, o *obs.Observer) (*Result, *Trace, error) {
	return RunShardedInspected(prog, g, shards, o, nil)
}
