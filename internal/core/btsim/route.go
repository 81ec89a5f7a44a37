package btsim

import (
	"fmt"
	"math/bits"

	"repro/internal/dbsp"
	"repro/internal/stream"
)

// Route delivery: the improved simulation of the paper's Section 6
// remark. When a superstep declares its communication to be a transpose
// (a rational permutation — see dbsp.TransposeRoute), the sorting phase
// of the delivery is unnecessary: the extracted records, which sit in
// sender order, are brought into destination order by log2(M1) riffle
// passes, each a single streamed traversal interleaving the two halves
// of every transpose block (one left-rotation of the block-index bits
// per pass). Cost O(m·log m) per superstep instead of the sorting
// substrate's O(m·log m·f*(m)) with larger constants — and for the
// recursive DFT schedule it turns the simulation into the optimal
// O(n·log n), as the paper observes.

// routeRecWords is the record width for route delivery: (src, payload).
const routeRecWords = 2

// routeDeliver performs the message exchange of a transpose-declared
// superstep for the cluster of n blocks packed at the top. The
// transpose acts blockwise on sub-blocks of M1·M2 processors (smoothing
// may have coarsened the simulated cluster beyond the declaring
// superstep's original granularity).
func (st *state) routeDeliver(n int64, lo int, tr *dbsp.TransposeRoute) {
	mu := st.mu
	bs := int64(tr.M1) * int64(tr.M2)
	if bs == 0 || n%bs != 0 {
		panic(fmt.Sprintf("btsim: transpose %dx%d does not tile cluster of %d", tr.M1, tr.M2, n))
	}
	p := st.plan(n)

	// Space juggling and relocation exactly as in deliver().
	gap := p.end - n*mu
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
		st.shiftRight(0, n*mu, p.ctx)
	})

	// Phase 1: extract exactly one (src, payload) record per context in
	// sender order, zeroing the message counts.
	st.phase("deliver.extract", func() { st.extractRoute(p, n, lo) })

	// Phase 2: riffle the records into destination order. Each pass
	// left-rotates the block-index bits by one: out[2i] = in[i],
	// out[2i + 1] = in[bs/2 + i], per block. Ping-pong between the
	// record and scratch regions.
	passes := bits.Len(uint(tr.M1)) - 1
	src, dst := p.rec, p.scratch
	st.phase("deliver.riffle", func() {
		for pass := 0; pass < passes; pass++ {
			for blk := int64(0); blk < n/bs; blk++ {
				base := blk * bs * routeRecWords
				half := bs / 2 * routeRecWords
				ra, rb, w := p.r[0], p.r[1], p.w[2]
				ra.Reset(src+base, half)
				rb.Reset(src+base+half, half)
				w.Reset(dst+base, 2*half)
				for ra.More() {
					w.Put(ra.Next())
					w.Put(ra.Next())
					w.Put(rb.Next())
					w.Put(rb.Next())
				}
				w.Close()
			}
			src, dst = dst, src
		}
		if src != p.rec {
			st.m.CopyRange(src, p.rec, n*routeRecWords)
		}
	})

	// Phase 3: merge — destination k's record is record k.
	st.phase("deliver.merge", func() { st.mergeRoute(p, n) })

	// Undo the juggling.
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
}

// extractRoute streams the contexts once, zeroing message counts and
// emitting the single outbox message of every context as a 2-word
// record (src, payload) in sender order.
func (st *state) extractRoute(p *deliveryPlan, n int64, lo int) {
	mu := st.mu
	l := st.layout
	r, w, rw := p.r[0], p.w[1], p.w[2]
	r.Reset(p.ctx, n*mu)
	w.Reset(p.ctx, n*mu)
	rw.Reset(p.rec, routeRecWords*n)

	inCountOff := int64(l.InCountOff())
	outCountOff := int64(l.OutCountOff())
	payloadOff := int64(l.OutboxOff(0)) + 1
	if payloadOff >= mu {
		panic("btsim: transpose superstep context has no outbox payload slot")
	}
	for b := int64(0); b < n; b++ {
		stream.Pipe(r, w, inCountOff)
		r.Next()
		w.Put(0)
		stream.Pipe(r, w, outCountOff-inCountOff-1)
		r.Next()
		w.Put(0)
		stream.Pipe(r, w, payloadOff-outCountOff-1)
		payload := r.Next()
		rw.Put(int64(lo) + b) // src
		rw.Put(payload)
		w.Put(payload)
		stream.Pipe(r, w, mu-payloadOff-1)
	}
	w.Close()
	rw.Close()
}

// mergeRoute streams the contexts a second time in lockstep with the
// riffled records, writing record k as the single inbox entry of
// context k.
func (st *state) mergeRoute(p *deliveryPlan, n int64) {
	mu := st.mu
	l := st.layout
	r, w, rr := p.r[0], p.w[1], p.r[2]
	r.Reset(p.ctx, n*mu)
	w.Reset(p.ctx, n*mu)
	rr.Reset(p.rec, routeRecWords*n)

	inCountOff := int64(l.InCountOff())
	srcOff := int64(l.InboxOff(0))
	for b := int64(0); b < n; b++ {
		src := rr.Next()
		payload := rr.Next()
		stream.Pipe(r, w, inCountOff)
		r.Next()
		w.Put(1)
		r.Next()
		w.Put(src)
		r.Next()
		w.Put(payload)
		stream.Pipe(r, w, mu-srcOff-2)
	}
	w.Close()
}
