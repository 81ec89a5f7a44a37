// Package amsort implements sorting on the f(x)-BT machine, the
// substrate the Section 5 simulation uses to deliver messages
// (paper reference [2]'s Approx-Median-Sort plays this role; see
// DESIGN.md for the substitution note).
//
// The algorithm is a bottom-up merge sort whose merges stream through a
// cascade of staging buffers at the top of memory: stage K (largest
// chunks, c_K ≈ f(N·R)/R records) refills from main memory by block
// transfer, stage j refills from stage j+1, and only stage 1 — whose
// buffers live at O(1) addresses — compares and moves words directly.
// Each refill or flush between stages j and j+1 is one block transfer
// costing f(extent of stage j+1) + c_j, which the choice
// c_j ≈ f(extent_{j+1})/R makes O(1) amortised per record. A record
// therefore pays O(K) = O(f*(N)) per pass and the sort runs in
// O(N·log N·f*(N)) — the log N term dominated by the pass count, the
// access function hidden inside the iterated f* ≤ 5 for every feasible
// size, which is what Theorem 12's f-independence needs in practice.
//
// Records are fixed-size groups of R words ordered by ascending word 0
// (the tag); ties keep a stable order only if tags are unique, which
// the btsim delivery guarantees by construction.
package amsort

import (
	"fmt"
	"slices"

	"repro/internal/bt"
	"repro/internal/cost"
)

// minChunk is the record count below which merging happens word by word
// (stage-1 buffers live within a constant address prefix).
const minChunk = 16

// Plan fixes the staging-cascade geometry for sorting count records of
// rec words each on a machine with access function f.
type Plan struct {
	f     cost.Func
	rec   int64   // words per record
	count int64   // records to sort
	chunk []int64 // chunk[j] = records per buffer at stage j (0 = innermost)
	base  []int64 // base[j] = word offset of stage j's buffer triple
	total int64   // workspace words
}

// NewPlan computes the cascade for the given geometry. rec >= 1,
// count >= 0.
func NewPlan(f cost.Func, rec, count int64) *Plan {
	if rec < 1 {
		panic(fmt.Sprintf("amsort: rec=%d < 1", rec))
	}
	p := &Plan{f: f, rec: rec}
	p.Replan(count)
	return p
}

// Replan recomputes the plan for count records of the same width under
// the same access function, reusing its slices: once a plan has held a
// cascade as deep as the new one, replanning allocates nothing. count
// >= 0.
func (p *Plan) Replan(count int64) {
	p.count = count
	n := count * p.rec
	// Outermost chunk ~ f(N)/R, then shrink by iterating f until the
	// constant floor. Build outermost-first, then reverse so chunk[0]
	// is innermost.
	desc := p.chunk[:0]
	c := int64(p.f.Cost(2*n)) / p.rec
	for c > minChunk {
		desc = append(desc, c)
		// Shrink at least geometrically: refills amortise as long as
		// c_j >= f(extent_{j+1})/rec, and halving keeps the stage count
		// logarithmic instead of tracking f's slow convergence toward
		// its (constant) fixpoint.
		next := int64(p.f.Cost(8*c*p.rec)) / p.rec
		if next > c/2 {
			next = c / 2
		}
		c = next
	}
	p.chunk = append(desc, minChunk)
	slices.Reverse(p.chunk)
	// Stage 0's buffer triple lives in the caller's HOT region (O(1)
	// absolute addresses — its words are touched individually); outer
	// stages live in the COLD region, reached only by block transfer.
	p.base = stages(p.base, len(p.chunk))
	off := int64(0)
	for j := 1; j < len(p.chunk); j++ {
		p.base[j] = off
		off += 3 * p.chunk[j] * p.rec
	}
	p.total = off
}

// ColdWords returns the cold-region footprint (outer-stage buffers).
func (p *Plan) ColdWords() int64 { return p.total }

// HotWords returns the hot-region footprint (the stage-0 buffer triple,
// which must sit at O(1) absolute addresses).
func (p *Plan) HotWords() int64 { return 3 * minChunk * p.rec }

// Stages returns the cascade depth K.
func (p *Plan) Stages() int { return len(p.chunk) }

// buffer identifiers within a stage triple.
const (
	bufA = iota
	bufB
	bufOut
)

// bufAddr returns the absolute address of buffer b at stage j given the
// hot and cold region offsets.
func (p *Plan) bufAddr(j, b int, hot, cold int64) int64 {
	if j == 0 {
		return hot + int64(b)*minChunk*p.rec
	}
	return cold + p.base[j] + int64(b)*p.chunk[j]*p.rec
}

// Sort sorts count records of rec words at [data, data+count·rec) on m,
// using [scratch, scratch+count·rec) as ping-pong space, the hot region
// [hot, hot+HotWords()) — which must sit at O(1) absolute addresses —
// and the cold region [cold, cold+ColdWords()). All regions must be
// disjoint. The sorted records end at data. The return value is the
// number of tag comparisons performed — the N·log N work term of the
// cost analysis, which callers surface as a metric.
func Sort(m *bt.Machine, p *Plan, data, scratch, hot, cold int64) int64 {
	return NewSorter(m).Sort(p, data, scratch, hot, cold)
}

// IsSorted reports whether the count records at data are ordered by
// ascending tag, reading without charging cost (a test/verification
// helper, not a model operation).
func IsSorted(m *bt.Machine, data, count, rec int64) bool {
	for i := int64(1); i < count; i++ {
		if m.Peek(data+i*rec) < m.Peek(data+(i-1)*rec) {
			return false
		}
	}
	return true
}

// A Sorter sorts on one machine again and again: it keeps its merge
// cursors and OUT-buffer counts between merges and between sorts, so
// once it has sorted with a cascade as deep as the next plan's, a sort
// allocates nothing.
type Sorter struct {
	m     *bt.Machine
	p     *Plan
	hot   int64
	cold  int64
	comps int64 // tag comparisons performed
	a, b  run   // the two merge inputs
	// outCnt[j] = records accumulated in stage j's OUT buffer; outDst =
	// cursor into the merge's destination.
	outCnt []int64
	outDst int64
}

// NewSorter returns a Sorter over m.
func NewSorter(m *bt.Machine) *Sorter {
	return &Sorter{m: m, a: run{side: bufA}, b: run{side: bufB}}
}

// Sort sorts like the package-level Sort, on the Sorter's machine.
func (s *Sorter) Sort(p *Plan, data, scratch, hot, cold int64) int64 {
	if p.count <= 1 {
		return 0
	}
	s.p, s.hot, s.cold, s.comps = p, hot, cold, 0
	K := len(p.chunk)
	s.a.pos, s.a.cnt = stages(s.a.pos, K), stages(s.a.cnt, K)
	s.b.pos, s.b.cnt = stages(s.b.pos, K), stages(s.b.cnt, K)
	s.outCnt = stages(s.outCnt, K)
	s.sortBaseRuns(data)
	src, dst := data, scratch
	for width := int64(minChunk); width < p.count; width *= 2 {
		for lo := int64(0); lo < p.count; lo += 2 * width {
			aCnt := min64(width, p.count-lo)
			bCnt := min64(width, p.count-lo-aCnt)
			if bCnt == 0 {
				// Odd run: move it across unchanged.
				s.copyRecords(src+lo*p.rec, dst+lo*p.rec, aCnt)
				continue
			}
			s.merge(src+lo*p.rec, aCnt, src+(lo+aCnt)*p.rec, bCnt, dst+lo*p.rec)
		}
		src, dst = dst, src
	}
	if src != data {
		s.copyRecords(src, data, p.count)
	}
	return s.comps
}

// stages returns s resized to k per-stage entries, reusing its storage
// when it is large enough; callers set or clear the entries they use.
func stages(s []int64, k int) []int64 {
	if cap(s) < k {
		return make([]int64, k)
	}
	return s[:k]
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// copyRecords moves n records with one block transfer.
func (s *Sorter) copyRecords(src, dst, n int64) {
	if n == 0 {
		return
	}
	s.m.CopyRange(src, dst, n*s.p.rec)
}

// sortBaseRuns sorts every minChunk-record run in place: each run is
// staged to the innermost buffer, insertion-sorted at O(1) addresses,
// and written back. The per-record shuffles go through MoveRange —
// whose bulk implementation charges each record as one fold instead of
// three virtual f.Cost calls — so the record width never appears in a
// word loop here. Do not restructure the comparison/move order: the
// charged cost sequence is pinned by the experiment tables.
func (s *Sorter) sortBaseRuns(data int64) {
	rec := s.p.rec
	buf := s.p.bufAddr(0, bufA, s.hot, s.cold)
	tmp := s.p.bufAddr(0, bufOut, s.hot, s.cold) // one-record scratch for swaps
	for lo := int64(0); lo < s.p.count; lo += minChunk {
		n := min64(minChunk, s.p.count-lo)
		s.m.CopyRange(data+lo*rec, buf, n*rec)
		// Insertion sort of n records at the top of memory.
		for i := int64(1); i < n; i++ {
			// Stash record i, shift greater records right, insert.
			s.m.MoveRange(buf+i*rec, tmp, rec)
			key := s.m.Read(tmp)
			j := i
			for j > 0 {
				s.comps++
				if s.m.Read(buf+(j-1)*rec) <= key {
					break
				}
				s.m.MoveRange(buf+(j-1)*rec, buf+j*rec, rec)
				j--
			}
			s.m.MoveRange(tmp, buf+j*rec, rec)
		}
		s.m.CopyRange(buf, data+lo*rec, n*rec)
	}
}

// run tracks one side (A or B) of a merge through the cascade:
// [pos[j], cnt[j]) is the window of stage j's buffer, and main is the
// cursor into the run in main memory.
type run struct {
	side     int // bufA or bufB
	mainOff  int64
	mainLeft int64
	pos, cnt []int64
}

// open points the cursor at the cnt records at off, with empty stages.
func (r *run) open(off, cnt int64) {
	r.mainOff, r.mainLeft = off, cnt
	clear(r.pos)
	clear(r.cnt)
}

// refill ensures stage j's window is non-empty, pulling from stage j+1
// (or main memory at the outermost stage). It returns false when the
// run is exhausted at this stage. The merge loop tests stage 0 in line
// and calls it only when that window is empty.
func (s *Sorter) refill(st *run, j int) bool {
	if st.pos[j] < st.cnt[j] {
		return true
	}
	p := s.p
	K := len(p.chunk)
	dst := p.bufAddr(j, st.side, s.hot, s.cold)
	if j == K-1 {
		if st.mainLeft == 0 {
			return false
		}
		n := min64(p.chunk[j], st.mainLeft)
		s.m.CopyRange(st.mainOff, dst, n*p.rec)
		st.mainOff += n * p.rec
		st.mainLeft -= n
		st.pos[j], st.cnt[j] = 0, n
		return true
	}
	if !s.refill(st, j+1) {
		return false
	}
	up := p.bufAddr(j+1, st.side, s.hot, s.cold)
	avail := st.cnt[j+1] - st.pos[j+1]
	n := min64(p.chunk[j], avail)
	s.m.CopyRange(up+st.pos[j+1]*p.rec, dst, n*p.rec)
	st.pos[j+1] += n
	st.pos[j], st.cnt[j] = 0, n
	return true
}

// flush pushes stage j's OUT buffer one stage outward (or to main
// memory at the outermost stage).
func (s *Sorter) flush(j int) {
	if s.outCnt[j] == 0 {
		return
	}
	p := s.p
	src := p.bufAddr(j, bufOut, s.hot, s.cold)
	if j == len(p.chunk)-1 {
		s.m.CopyRange(src, s.outDst, s.outCnt[j]*p.rec)
		s.outDst += s.outCnt[j] * p.rec
	} else {
		if s.outCnt[j+1]+s.outCnt[j] > p.chunk[j+1] {
			s.flush(j + 1)
		}
		up := p.bufAddr(j+1, bufOut, s.hot, s.cold)
		s.m.CopyRange(src, up+s.outCnt[j+1]*p.rec, s.outCnt[j]*p.rec)
		s.outCnt[j+1] += s.outCnt[j]
	}
	s.outCnt[j] = 0
}

// merge merges the sorted runs (aOff, aCnt) and (bOff, bCnt) into dst.
func (s *Sorter) merge(aOff, aCnt, bOff, bCnt, dst int64) {
	p := s.p
	a, b := &s.a, &s.b
	a.open(aOff, aCnt)
	b.open(bOff, bCnt)
	clear(s.outCnt)
	s.outDst = dst

	aBuf := p.bufAddr(0, bufA, s.hot, s.cold)
	bBuf := p.bufAddr(0, bufB, s.hot, s.cold)
	oBuf := p.bufAddr(0, bufOut, s.hot, s.cold)
	for {
		haveA := a.pos[0] < a.cnt[0] || s.refill(a, 0)
		haveB := b.pos[0] < b.cnt[0] || s.refill(b, 0)
		if !haveA && !haveB {
			break
		}
		var src int64
		var st *run
		switch {
		case !haveB:
			st, src = a, aBuf
		case !haveA:
			st, src = b, bBuf
		default:
			s.comps++
			if s.m.Read(aBuf+a.pos[0]*p.rec) <= s.m.Read(bBuf+b.pos[0]*p.rec) {
				st, src = a, aBuf
			} else {
				st, src = b, bBuf
			}
		}
		if s.outCnt[0] == p.chunk[0] {
			s.flush(0)
		}
		s.m.MoveRange(src+st.pos[0]*p.rec, oBuf+s.outCnt[0]*p.rec, p.rec)
		st.pos[0]++
		s.outCnt[0]++
	}
	for j := range s.outCnt {
		s.flush(j)
	}
}
