// Package stream provides sequential access to deep BT-memory regions
// at block-transfer cost: a Reader (Writer) moves data between a region
// and the top of memory through a cascade of staging buffers, so that
// the word-level operations the caller performs all happen at O(1)
// addresses while every deep access is a pipelined block transfer.
//
// The cascade geometry mirrors the COMPUTE recursion of Section 5.2.1:
// stage j+1 buffers are c_{j+1} ≈ f(extent of stage j+2)-words long, so
// each inter-stage transfer of c_j words costs f(c_{j+1}·const) + c_j =
// O(c_j), making the amortised per-word streaming cost O(depth) =
// O(f*(region size)) — the Fact 2 touching bound, which is optimal.
//
// The btsim message-delivery phases (extraction, inbox merge) are built
// from these primitives.
package stream

import (
	"fmt"

	"repro/internal/bt"
	"repro/internal/cost"
)

// minChunk is the innermost stage size in words; stage-0 word accesses
// therefore touch only a constant prefix of memory.
const minChunk = 32

// Geometry fixes a cascade's chunk sizes and buffer offsets. The
// innermost (stage-0) buffer lives in a caller-provided HOT region that
// must sit at O(1) absolute addresses — its words are touched
// individually, so its address bounds the per-word streaming cost. The
// outer stages live in a separate COLD region reached only by block
// transfer, which can sit anywhere near the top.
type Geometry struct {
	chunk []int64 // chunk[0] innermost
	base  []int64 // base[j], j >= 1: buffer offset within the cold region
	total int64   // cold-region words
}

// NewGeometry plans a cascade for streaming regions of up to words
// words under access function f. The innermost chunk is constant; each
// outer chunk is ≈ f(8·inner extent) so transfers amortise.
func NewGeometry(f cost.Func, words int64) *Geometry {
	var desc []int64
	c := int64(f.Cost(2 * words))
	for c > minChunk {
		desc = append(desc, c)
		// Shrink at least geometrically: the theory only needs
		// c_j >= f(extent_{j+1}) for refills to amortise, and halving
		// keeps the stage count logarithmic instead of following f's
		// slow convergence toward its (constant) fixpoint.
		next := int64(f.Cost(8 * c))
		if next > c/2 {
			next = c / 2
		}
		c = next
	}
	desc = append(desc, minChunk)
	g := &Geometry{chunk: make([]int64, len(desc)), base: make([]int64, len(desc))}
	off := int64(0)
	for i := range desc {
		g.chunk[i] = desc[len(desc)-1-i]
		if i > 0 {
			g.base[i] = off
			off += g.chunk[i]
		}
	}
	g.total = off
	return g
}

// ColdWords returns the cold-region footprint of one cascade (outer
// stage buffers).
func (g *Geometry) ColdWords() int64 { return g.total }

// HotWords returns the hot-region footprint of one cascade (the
// innermost buffer).
func (g *Geometry) HotWords() int64 { return minChunk }

// bufAddr returns the absolute address of stage j's buffer given the
// hot and cold region offsets.
func (g *Geometry) bufAddr(j int, hot, cold int64) int64 {
	if j == 0 {
		return hot
	}
	return cold + g.base[j]
}

// Stages returns the cascade depth.
func (g *Geometry) Stages() int { return len(g.chunk) }

// Reader streams the region [off, off+words) of m sequentially. Word
// reads via Peek/Next touch only the innermost buffer; refills are
// block transfers.
type Reader struct {
	m     *bt.Machine
	g     *Geometry
	hot   int64 // stage-0 buffer address (must be O(1))
	cold  int64 // outer-stage buffer region
	off   int64 // next region word to pull into the cascade
	left  int64 // region words not yet pulled
	pos   []int64
	cnt   []int64
	done  int64 // words consumed by the caller
	total int64
}

// NewReader opens a reader over [off, off+words) with the stage-0
// buffer at [hot, hot+g.HotWords()) — which must be at O(1) addresses —
// and outer stages at [cold, cold+g.ColdWords()). All three regions
// must be disjoint.
func NewReader(m *bt.Machine, g *Geometry, hot, cold, off, words int64) *Reader {
	K := len(g.chunk)
	r := &Reader{m: m, g: g, hot: hot, cold: cold,
		pos: make([]int64, K), cnt: make([]int64, K)}
	r.Reset(off, words)
	return r
}

// Reset reopens the reader over [off, off+words) with the same machine,
// geometry and buffers, discarding anything still staged: a caller that
// streams many regions through one cascade allocates it once.
func (r *Reader) Reset(off, words int64) {
	if words < 0 {
		panic(fmt.Sprintf("stream: negative region size %d", words))
	}
	r.off, r.left, r.done, r.total = off, words, 0, words
	clear(r.pos)
	clear(r.cnt)
}

// More reports whether unread words remain.
func (r *Reader) More() bool { return r.done < r.total }

// Consumed returns the words read so far.
func (r *Reader) Consumed() int64 { return r.done }

// refill ensures stage j holds at least one word; false when exhausted.
func (r *Reader) refill(j int) bool {
	if r.pos[j] < r.cnt[j] {
		return true
	}
	g := r.g
	dst := g.bufAddr(j, r.hot, r.cold)
	if j == len(g.chunk)-1 {
		if r.left == 0 {
			return false
		}
		n := min64(g.chunk[j], r.left)
		r.m.CopyRange(r.off, dst, n)
		r.off += n
		r.left -= n
		r.pos[j], r.cnt[j] = 0, n
		return true
	}
	if !r.refill(j + 1) {
		return false
	}
	up := g.bufAddr(j+1, r.hot, r.cold)
	n := min64(g.chunk[j], r.cnt[j+1]-r.pos[j+1])
	r.m.CopyRange(up+r.pos[j+1], dst, n)
	r.pos[j+1] += n
	r.pos[j], r.cnt[j] = 0, n
	return true
}

// fill refills the empty stage-0 buffer. Peek and Next test the buffer
// in line and call it only when it is empty; it panics when the stream
// is exhausted.
func (r *Reader) fill() {
	if !r.More() {
		panic("stream: Peek past end")
	}
	if !r.refill(0) {
		panic("stream: refill failed with words remaining")
	}
}

// Peek returns the next word without consuming it. It panics when the
// stream is exhausted.
func (r *Reader) Peek() int64 {
	if r.pos[0] == r.cnt[0] {
		r.fill()
	}
	return r.m.Read(r.hot + r.pos[0])
}

// Next consumes and returns the next word.
func (r *Reader) Next() int64 {
	if r.pos[0] == r.cnt[0] {
		r.fill()
	}
	w := r.m.Read(r.hot + r.pos[0])
	r.pos[0]++
	r.done++
	return w
}

// Writer streams words sequentially into the region [off, off+capacity)
// of m: Put touches only the innermost buffer; flushes are block
// transfers. Close must be called to drain the cascade.
type Writer struct {
	m    *bt.Machine
	g    *Geometry
	hot  int64
	cold int64
	off  int64 // next region word to be written by the outermost flush
	cap  int64
	cnt  []int64
	put  int64
}

// NewWriter opens a writer over [off, off+capacity) with the stage-0
// buffer at hot (O(1) addresses) and outer stages at cold; the regions
// must be disjoint from each other and from any other cascade.
func NewWriter(m *bt.Machine, g *Geometry, hot, cold, off, capacity int64) *Writer {
	w := &Writer{m: m, g: g, hot: hot, cold: cold, cnt: make([]int64, len(g.chunk))}
	w.Reset(off, capacity)
	return w
}

// Reset reopens the writer over [off, off+capacity) with the same
// machine, geometry and buffers. Words staged and not yet drained by
// Close are dropped.
func (w *Writer) Reset(off, capacity int64) {
	w.off, w.cap, w.put = off, capacity, 0
	clear(w.cnt)
}

// Written returns the words accepted so far.
func (w *Writer) Written() int64 { return w.put }

// flush pushes stage j's buffer outward (to stage j+1, or the region).
func (w *Writer) flush(j int) {
	if w.cnt[j] == 0 {
		return
	}
	g := w.g
	src := g.bufAddr(j, w.hot, w.cold)
	if j == len(g.chunk)-1 {
		w.m.CopyRange(src, w.off, w.cnt[j])
		w.off += w.cnt[j]
	} else {
		if w.cnt[j+1]+w.cnt[j] > g.chunk[j+1] {
			w.flush(j + 1)
		}
		up := g.bufAddr(j+1, w.hot, w.cold)
		w.m.CopyRange(src, up+w.cnt[j+1], w.cnt[j])
		w.cnt[j+1] += w.cnt[j]
	}
	w.cnt[j] = 0
}

// Put appends one word. It panics when the region capacity is exceeded.
func (w *Writer) Put(v int64) {
	if w.put >= w.cap {
		panic("stream: Put past capacity")
	}
	if w.cnt[0] == w.g.chunk[0] {
		w.flush(0)
	}
	w.m.Write(w.hot+w.cnt[0], v)
	w.cnt[0]++
	w.put++
}

// Close drains every stage to the region. The writer must not be used
// afterwards.
func (w *Writer) Close() {
	for j := range w.g.chunk {
		w.flush(j)
	}
}

// Pipe streams n words from r to w: the bulk form of
// `for i := 0; i < n; i++ { w.Put(r.Next()) }`, charging the exact same
// model cost in the exact same accumulation order. Whole runs of words
// available in the reader's stage-0 buffer move into the writer's
// stage-0 buffer as one interleaved bulk charge; refills, flushes and
// the capacity panic happen at the same points as the word loop (the
// word straddling a writer flush goes through the word-by-word path,
// because the loop charges its read before the flush transfers).
// r and w must be cascades over the same machine.
func Pipe(r *Reader, w *Writer, n int64) {
	if r.m != w.m {
		panic("stream: Pipe across machines")
	}
	for n > 0 {
		if r.pos[0] == r.cnt[0] {
			if !r.More() {
				panic("stream: Pipe past end")
			}
			r.fill()
		}
		if w.put >= w.cap || w.cnt[0] == w.g.chunk[0] {
			w.Put(r.Next())
			n--
			continue
		}
		k := min64(n, r.cnt[0]-r.pos[0])
		k = min64(k, w.g.chunk[0]-w.cnt[0])
		k = min64(k, w.cap-w.put)
		r.m.StreamWords(r.hot+r.pos[0], w.hot+w.cnt[0], k)
		r.pos[0] += k
		r.done += k
		w.cnt[0] += k
		w.put += k
		n -= k
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
