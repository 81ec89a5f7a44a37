package btsim

import (
	"math/bits"

	"repro/internal/amsort"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/stream"
)

// Message delivery for one superstep of a cluster of n blocks packed at
// the top of memory (Section 5.2.1, "Simulation of communications").
//
// Our contexts are fixed-size, so instead of sorting every context
// element and realigning with ALIGN, delivery extracts the outbox
// messages into (tag, src, payload) records, sorts them with the BT
// sorting substrate — tag = dest·(M+1) + extraction index, so records
// order by destination and then by the ascending-sender discipline the
// dbsp engine uses — and merges them into the destination inboxes
// with a second streaming pass. All word-level work happens in
// hot-region buffers at O(1) addresses; everything else is block
// transfer. The space the sort needs (the paper's L(i_s)) is created
// exactly as in Figure 7: UNPACK(i_s), PACK(i_k), shift the siblings
// down, and reverse afterwards.

// recWords is the record width: tag, source processor, payload.
const recWords = 3

// deliveryPlan is the region layout of a delivery for clusters of one
// size, with the stream cascades that run over it. A run plans each
// cluster size once (state.plan) and reuses the plan, cascades
// included, for every delivery at that size.
type deliveryPlan struct {
	sortPlan *amsort.Plan // sizes the sort's regions for mcap records
	geo      *stream.Geometry
	hotBase  int64 // hot page start (absolute 0)
	hotSize  int64
	coldBase int64
	coldSize int64
	ctx      int64 // relocated context region
	rec      int64 // record region
	scratch  int64 // sort scratch region
	end      int64 // total footprint in words
	mcap     int64 // record capacity
	// r[k] and w[k] are cascade k's reader and writer (they share its
	// buffers, so at most one of them is open at a time); each pass
	// reopens them over its region with Reset.
	r [3]*stream.Reader
	w [3]*stream.Writer
}

// plan returns the delivery plan for clusters of n blocks, planning it
// at the first delivery of that size.
func (st *state) plan(n int64) *deliveryPlan {
	k := bits.Len64(uint64(n)) - 1
	if p := st.plans[k]; p != nil {
		return p
	}
	p := newDeliveryPlan(st.f, st.mu, int64(st.layout.MaxMsgs), n)
	for c := range p.r {
		hot, cold := p.streamHot(int64(c)), p.streamCold(int64(c))
		p.r[c] = stream.NewReader(st.m, p.geo, hot, cold, 0, 0)
		p.w[c] = stream.NewWriter(st.m, p.geo, hot, cold, 0, 0)
	}
	st.plans[k] = p
	return p
}

// newDeliveryPlan computes the delivery layout from first principles so
// Simulate can size the machine tail before any state exists. The
// cascades are left to state.plan.
func newDeliveryPlan(f cost.Func, mu, q, n int64) *deliveryPlan {
	mcap := n * q
	p := &deliveryPlan{mcap: mcap}
	p.sortPlan = amsort.NewPlan(f, recWords, mcap)
	region := n*mu + recWords*mcap
	p.geo = stream.NewGeometry(f, region)
	// Hot page: 3 stream cascades + sort stage-0 + the per-context
	// message stash (2·Q words).
	p.hotBase = 0
	p.hotSize = 3*p.geo.HotWords() + p.sortPlan.HotWords() + 2*q
	p.coldBase = p.hotSize
	p.coldSize = 3*p.geo.ColdWords() + p.sortPlan.ColdWords()
	p.ctx = p.coldBase + p.coldSize
	p.rec = p.ctx + n*mu
	p.scratch = p.rec + recWords*mcap
	p.end = p.scratch + recWords*mcap
	return p
}

// hot/cold offsets for the three stream cascades and the sorter.
func (p *deliveryPlan) streamHot(k int64) int64 { return p.hotBase + k*p.geo.HotWords() }
func (p *deliveryPlan) streamCold(k int64) int64 {
	return p.coldBase + k*p.geo.ColdWords()
}
func (p *deliveryPlan) sortHot() int64  { return p.hotBase + 3*p.geo.HotWords() }
func (p *deliveryPlan) sortCold() int64 { return p.coldBase + 3*p.geo.ColdWords() }
func (p *deliveryPlan) stashHot() int64 {
	return p.hotBase + 3*p.geo.HotWords() + p.sortPlan.HotWords()
}

// deliveryFootprint returns the worst-case total words (from the top of
// memory) a delivery for a cluster of n blocks may use; Simulate sizes
// the machine tail with the whole-machine value.
func deliveryFootprint(f cost.Func, mu, q, n int64) int64 {
	if q == 0 {
		return 0
	}
	return newDeliveryPlan(f, mu, q, n).end + alignSlack
}

// dispatchDeliver chooses the delivery strategy: nothing without
// message buffers, word-level for constant-size clusters, the riffle
// routing of route.go for declared transposes, and the sorting pipeline
// otherwise. An inbox overflow is the engine's overflow error.
func (st *state) dispatchDeliver(n int64, lo int, tr *dbsp.TransposeRoute) error {
	if st.layout.MaxMsgs == 0 {
		return nil
	}
	if n <= st.directMax {
		return st.deliverDirect(n, lo)
	}
	if tr != nil && !st.noRoute {
		st.routeDeliver(n, lo, tr)
		return nil
	}
	return st.deliver(n, lo)
}

// deliver performs the sorting-based message exchange of the current
// superstep for the cluster of n blocks packed at the top (processors
// lo..lo+n-1).
func (st *state) deliver(n int64, lo int) error {
	mu := st.mu
	p := st.plan(n)

	// Create the free gap [n·µ, p.end) below the cluster (Figure 7).
	// The free space from PACK(label) is [n·µ, 2n·µ); when more is
	// needed, pack a coarser cluster and shift the siblings down.
	gap := p.end - n*mu // words of free space required below the cluster
	ik := -1
	st.phase("deliver.juggle", func() {
		if gap > n*mu {
			label := levelOfSize(st.v, n)
			ik = coarserLevel(st, label, gap)
			st.unpack(label)
			st.pack(ik)
			nk := int64(st.v>>uint(ik)) * mu
			if nk > n*mu {
				st.shiftRight(n*mu, nk-n*mu, gap)
			}
		}

		// Relocate the cluster below the workspace.
		st.shiftRight(0, n*mu, p.ctx)
	})

	// Phase 1: extraction. Stream the contexts, zero the message
	// counts, and append one record per outbox entry.
	var msgs int64
	st.phase("deliver.extract", func() { msgs = st.extract(p, n, lo) })

	// Phase 2: sort the records by tag, replanning the run's one record
	// sort for this count.
	st.phase("deliver.sort", func() {
		if msgs > 1 {
			st.recPlan.Replan(msgs)
			comps := st.sorter.Sort(st.recPlan, p.rec, p.scratch, p.sortHot(), p.sortCold())
			st.sortCompsC.Add(comps)
		}
	})

	// Phase 3: merge the sorted records into the destination inboxes.
	var err error
	st.phase("deliver.merge", func() {
		if msgs > 0 {
			err = st.mergeInboxes(p, n, lo, msgs)
		}
	})
	if err != nil {
		return err
	}

	// Move the cluster back to the top and undo the space juggling.
	st.phase("deliver.juggle", func() {
		st.shiftLeft(p.ctx, n*mu, p.ctx)
		if ik >= 0 {
			label := levelOfSize(st.v, n)
			nk := int64(st.v>>uint(ik)) * mu
			if nk > n*mu {
				st.shiftLeft(n*mu+gap, nk-n*mu, gap)
			}
			st.unpack(ik)
			st.pack(label)
		}
	})
	return nil
}

// alignSlack pads the sibling shift so the gap strictly covers the
// delivery footprint.
const alignSlack = 8

// directDeliveryMaxBlocks bounds the cluster size for word-level
// delivery at the top of memory.
const directDeliveryMaxBlocks = 8

// deliverDirect performs the message exchange by direct word access for
// a cluster of n <= directDeliveryMaxBlocks blocks packed at the top:
// every touched address is below n·µ = O(µ), so each access costs O(1).
// The discipline matches the dbsp engine's exchange: clear inboxes,
// deliver in ascending sender order, clear outboxes; the first message
// to find its inbox full is the engine's overflow error.
func (st *state) deliverDirect(n int64, lo int) error {
	mu := st.mu
	l := st.layout
	for b := int64(0); b < n; b++ {
		st.m.Write(b*mu+int64(l.InCountOff()), 0)
	}
	for b := int64(0); b < n; b++ {
		base := b * mu
		sent := st.m.Read(base + int64(l.OutCountOff()))
		for e := int64(0); e < sent; e++ {
			dest := st.m.Read(base + int64(l.OutboxOff(int(e))))
			payload := st.m.Read(base + int64(l.OutboxOff(int(e))) + 1)
			dbase := (dest - int64(lo)) * mu
			cnt := st.m.Read(dbase + int64(l.InCountOff()))
			if cnt >= int64(l.MaxMsgs) {
				return l.InboxOverflow(int(dest))
			}
			st.m.Write(dbase+int64(l.InboxOff(int(cnt))), int64(lo)+b)
			st.m.Write(dbase+int64(l.InboxOff(int(cnt)))+1, payload)
			st.m.Write(dbase+int64(l.InCountOff()), cnt+1)
		}
		if sent > 0 {
			st.m.Write(base+int64(l.OutCountOff()), 0)
		}
	}
	return nil
}

// levelOfSize returns the label whose clusters have n blocks.
func levelOfSize(v int, n int64) int {
	label := 0
	for int64(v>>uint(label)) > n {
		label++
	}
	return label
}

// coarserLevel returns the coarsest-needed level ik < label whose
// cluster, when packed, frees at least gap words of space; 0 when even
// the whole machine must be packed (the memory tail absorbs the rest).
func coarserLevel(st *state, label int, gap int64) int {
	for i := label - 1; i >= 0; i-- {
		if int64(st.v>>uint(i))*st.mu >= gap {
			return i
		}
	}
	return 0
}

// extract streams the cluster contexts once: message counts are zeroed
// in place and each outbox entry becomes a record (tag, src, payload)
// appended to the record region. It returns the record count.
func (st *state) extract(p *deliveryPlan, n int64, lo int) int64 {
	mu := st.mu
	l := st.layout
	r, w, rw := p.r[0], p.w[1], p.w[2]
	r.Reset(p.ctx, n*mu)
	w.Reset(p.ctx, n*mu)
	rw.Reset(p.rec, recWords*p.mcap)

	// The context layout is contiguous — data, inbox count, inbox pairs,
	// outbox count, outbox pairs — so the scan is a few special words
	// between bulk-piped default runs (Pipe charges exactly like the
	// word loop `w.Put(r.Next())` it replaces).
	inCountOff := int64(l.InCountOff())
	outCountOff := int64(l.OutCountOff())
	firstOut := int64(l.OutboxOff(0))
	var msgs int64
	for b := int64(0); b < n; b++ {
		src := lo + int(b)
		stream.Pipe(r, w, inCountOff)
		r.Next()
		w.Put(0)
		stream.Pipe(r, w, outCountOff-inCountOff-1)
		sent := r.Next()
		w.Put(0)
		for e := int64(0); e < sent; e++ {
			// Outbox entry: destination word, then payload word.
			dest := r.Next()
			payload := r.Next()
			w.Put(dest)
			w.Put(payload)
			rw.Put(dest*(p.mcap+1) + msgs)
			rw.Put(int64(src))
			rw.Put(payload)
			msgs++
		}
		stream.Pipe(r, w, mu-firstOut-2*sent)
	}
	w.Close()
	rw.Close()
	return msgs
}

// mergeInboxes streams the contexts a second time in lockstep with the
// sorted records, writing each destination's message count and entries
// into its inbox. Messages past an inbox's capacity are dropped and the
// merge returns the engine's overflow error for the inbox whose
// overflowing message comes first in the engine's scan order: the
// least extraction index, the low part of the tag.
func (st *state) mergeInboxes(p *deliveryPlan, n int64, lo int, msgs int64) error {
	mu := st.mu
	l := st.layout
	q := int64(l.MaxMsgs)
	r, w, rr := p.r[0], p.w[1], p.r[2]
	r.Reset(p.ctx, n*mu)
	w.Reset(p.ctx, n*mu)
	rr.Reset(p.rec, recWords*msgs)
	stash := p.stashHot()

	inCountOff := int64(l.InCountOff())
	firstIn := int64(l.InboxOff(0))
	ovfIdx, ovfDest := int64(-1), int64(0)
	for b := int64(0); b < n; b++ {
		dest := int64(lo) + b
		// Collect this destination's messages into the hot stash.
		cnt := int64(0)
		for rr.More() && rr.Peek()/(p.mcap+1) == dest {
			tag := rr.Next()
			src := rr.Next()
			payload := rr.Next()
			if cnt < q {
				st.m.Write(stash+2*cnt, src)
				st.m.Write(stash+2*cnt+1, payload)
			} else if idx := tag % (p.mcap + 1); ovfIdx < 0 || idx < ovfIdx {
				ovfIdx, ovfDest = idx, dest
			}
			cnt++
		}
		cnt = min(cnt, q)
		// Stream the context through, splicing in the inbox: the data
		// prefix and the tail after the spliced entries are bulk pipes;
		// the inbox words themselves interleave a stash read per word
		// (the inbox directly follows its count in the layout).
		stream.Pipe(r, w, inCountOff)
		r.Next()
		w.Put(cnt)
		for k := int64(0); k < 2*cnt; k++ {
			r.Next()
			w.Put(st.m.Read(stash + k))
		}
		stream.Pipe(r, w, mu-firstIn-2*cnt)
	}
	w.Close()
	if rr.More() {
		panic("btsim: undelivered messages after merge")
	}
	if ovfIdx >= 0 {
		return l.InboxOverflow(int(ovfDest))
	}
	return nil
}
