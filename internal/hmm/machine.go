// Package hmm implements the Hierarchical Memory Model of Aggarwal,
// Alpern, Chandra and Snir (paper reference [1]): a random access
// machine where touching memory address x costs f(x) time for a
// nondecreasing access function f. The machine is mechanical — every
// Read/Write moves real words in a real array and charges the exact
// model cost — so the simulation theorems of the paper can be validated
// against observed cost rather than against re-derived formulas.
//
// Cost convention (paper Section 2): an n-ary operation touching cells
// x1..xn takes 1 + Σ f(xi). We charge f(x) per word access plus 1 per
// explicit compute operation (ChargeOps), which is within a constant
// factor of the model for bounded-arity operations.
//
// The machine serves one model extension: TransferBlock prices and
// moves the BT machine's pipelined block transfer (package bt), which
// checks its ranges before calling it.
package hmm

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/obs"
)

// Word is the unit of HMM storage.
type Word = int64

// Stats aggregates the cost accounting of a Machine.
type Stats struct {
	// Cost is the total charged model time: Σ f(x) over accesses plus
	// compute operations.
	Cost float64
	// Reads and Writes count word accesses by kind.
	Reads, Writes int64
	// ComputeOps counts unit-time compute operations charged with
	// ChargeOps.
	ComputeOps int64
	// MaxAddr is the highest address touched so far (-1 if none).
	MaxAddr int64
	// Depth[k] counts word accesses whose address has bit-length k
	// (address 0 in bucket 0): the touch-depth profile showing how much
	// of the traffic stays near the top of memory. bits.Len64 reaches 64,
	// so 65 buckets cover every possible address without overflow.
	Depth [DepthBuckets]int64
}

// DepthBuckets is the size of the Depth profile: one bucket per
// possible bit-length of an address (bits.Len64 ranges over [0, 64]).
const DepthBuckets = 65

// DepthByBounds rebuckets the touch-depth profile by explicit level
// capacities (e.g. a cost.Table's Bounds): the result has
// len(bounds)+1 entries, the last counting accesses beyond every bound.
// A power-of-two bucket straddling a boundary splits its count
// proportionally by the boundary position (with cumulative rounding, so
// the split parts always sum to the bucket's count); the profile only
// records bucket totals, so the split assumes accesses are spread
// evenly within a bucket.
func (s Stats) DepthByBounds(bounds []int64) []int64 {
	out := make([]int64, len(bounds)+1)
	for k, n := range s.Depth {
		if n == 0 {
			continue
		}
		// Addresses in bucket k lie in [lo, lo+span) (bucket 0 = {0}).
		lo, span := int64(0), int64(1)
		if k > 0 {
			if k > 63 {
				// Bit-length 64 exceeds every int64 bound: last level.
				out[len(bounds)] += n
				continue
			}
			lo = int64(1) << uint(k-1)
			span = lo
		}
		// Walk the levels, intersecting each with the bucket interval and
		// assigning the proportional share of n. Shares are cumulative
		// (share_i = floor(n·covered/span) minus what earlier levels got)
		// so they sum to exactly n.
		covered, assigned := int64(0), int64(0)
		for i := 0; i <= len(bounds); i++ {
			segHi := lo + span
			if i < len(bounds) && bounds[i] < segHi {
				segHi = bounds[i]
			}
			if segHi > lo+covered {
				covered = segHi - lo
			}
			// cum = n·covered/span without int64 overflow (covered <= span,
			// so the quotient is at most n and Div64's hi < span holds).
			mh, ml := bits.Mul64(uint64(n), uint64(covered))
			q, _ := bits.Div64(mh, ml, uint64(span))
			cum := int64(q)
			out[i] += cum - assigned
			assigned = cum
		}
	}
	return out
}

// Accesses returns Reads + Writes.
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }

// Machine is an f(x)-HMM with a fixed-size word memory.
type Machine struct {
	f   cost.Func
	tab *cost.Compiled
	// dense caches tab.Dense(), cut to the memory size, so the per-word
	// charge path is one bounds check and one slice load instead of a
	// virtual call into math.Pow: an address below len(dense) is in range.
	dense []float64
	mem   []Word
	stats Stats
	// levels, when non-nil (Observe attaches it), sums the charged cost
	// per address bit-length, as Stats.Depth counts the accesses.
	levels *[DepthBuckets]float64
}

// New returns an f(x)-HMM with size words of zeroed memory.
// It panics if size is negative.
func New(f cost.Func, size int64) *Machine {
	if size < 0 {
		panic(fmt.Sprintf("hmm: negative memory size %d", size))
	}
	tab := cost.Compile(f, size-1)
	dense := tab.Dense()
	if int64(len(dense)) > size {
		dense = dense[:size]
	}
	return &Machine{f: f, tab: tab, dense: dense,
		mem: make([]Word, size), stats: Stats{MaxAddr: -1}}
}

// AccessFunc returns the machine's access function.
func (m *Machine) AccessFunc() cost.Func { return m.f }

// Size returns the memory size in words.
func (m *Machine) Size() int64 { return int64(len(m.mem)) }

// Stats returns a copy of the accumulated statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Observe exports the machine's accounting to o under the sim prefix.
// The always-on accounting counts accesses per level but not their
// cost, so Observe attaches a per-level cost array: every charge path
// adds each f(x) it charged to x's level in the order it charged them,
// so each level's sum is bit-identical to a per-word fold. The returned
// publish, called after the run, detaches it and adds <sim>.reads,
// .writes, .computeops, .level.<k>.accesses and .cost (k the address
// bit-length, as in Stats.Depth) and .memory.words, plus the charged
// total through l. With a nil o nothing is attached: an unobserved run
// pays one nil check per operation, and publish does nothing.
func (m *Machine) Observe(o *obs.Observer, sim string, l *obs.Ledger) (publish func()) {
	if o == nil {
		return func() {}
	}
	levels := new([DepthBuckets]float64)
	m.levels = levels
	return func() {
		m.levels = nil
		l.Total(m.stats.Cost)
		o.Counter(sim + ".reads").Add(m.stats.Reads)
		o.Counter(sim + ".writes").Add(m.stats.Writes)
		o.Counter(sim + ".computeops").Add(m.stats.ComputeOps)
		o.Gauge(sim + ".memory.words").Set(m.Size())
		for k, n := range m.stats.Depth {
			if n != 0 {
				o.Counter(fmt.Sprintf("%s.level.%d.accesses", sim, k)).Add(n)
				o.FloatCounter(fmt.Sprintf("%s.level.%d.cost", sim, k)).Add(levels[k])
			}
		}
	}
}

// Cost returns the total charged model time so far.
func (m *Machine) Cost() float64 { return m.stats.Cost }

// ResetStats zeroes the cost accounting but leaves memory contents.
func (m *Machine) ResetStats() { m.stats = Stats{MaxAddr: -1} }

func (m *Machine) checkAddr(x int64) {
	if x < 0 || x >= int64(len(m.mem)) {
		panic(fmt.Sprintf("hmm: address %d out of range [0,%d)", x, len(m.mem)))
	}
}

// charge accounts one word access at x; the caller counts its kind.
func (m *Machine) charge(x int64) {
	c := m.costAt(x)
	m.stats.Cost += c
	if x > m.stats.MaxAddr {
		m.stats.MaxAddr = x
	}
	k := bits.Len64(uint64(x))
	m.stats.Depth[k]++
	if m.levels != nil {
		m.levels[k] += c
	}
}

// segment returns the bounds [lo, hi) of the power-of-two segment
// holding x: every address in it has x's bit-length, so x's level.
func segment(x int64) (lo, hi int64) {
	if x == 0 {
		return 0, 1
	}
	k := bits.Len64(uint64(x))
	lo = int64(1) << uint(k-1)
	if k < 63 {
		return lo, lo << 1
	}
	return lo, math.MaxInt64
}

// foldRange adds f(x) to the cost of x's level for x ascending over
// [lo, hi): the level pass of chargeRange. It walks each power-of-two
// segment once, folding into one accumulator per segment in the same
// order, so each level's sum is bit-identical to a per-address fold.
func (m *Machine) foldRange(lo, hi int64) {
	for x := lo; x < hi; {
		_, end := segment(x)
		end = min(end, hi)
		k := bits.Len64(uint64(x))
		c := m.levels[k]
		for ; x < end; x++ {
			c += m.costAt(x)
		}
		m.levels[k] = c
	}
}

// foldPairs adds to the level costs, for i = 0, …, n-1 (n-1, …, 0 when
// desc), reps rounds of f(a+i) then f(b+i): the order the Cost loops of
// MoveRange and StreamWords (reps 1) and SwapRange (reps 2) charge in.
// It walks each stretch of i over which both addresses keep their
// levels once; where the two levels differ each has its own
// accumulator, and where they coincide one accumulator takes the
// interleaved sequence, so each level's sum is bit-identical to a
// per-address fold in the Cost loop's order.
func (m *Machine) foldPairs(a, b, n int64, desc bool, reps int) {
	for done := int64(0); done < n; {
		// The stretch is [i, j) of indices, walked from i up or from j-1 down.
		var i, j int64
		if !desc {
			i = done
			_, ea := segment(a + i)
			_, eb := segment(b + i)
			j = min(n, ea-a, eb-b)
		} else {
			j = n - done
			sa, _ := segment(a + j - 1)
			sb, _ := segment(b + j - 1)
			i = max(0, sa-a, sb-b)
		}
		done += j - i
		ka, kb := bits.Len64(uint64(a+i)), bits.Len64(uint64(b+i))
		ca, cb := m.levels[ka], m.levels[kb]
		for s := int64(0); s < j-i; s++ {
			x := i + s
			if desc {
				x = j - 1 - s
			}
			fa, fb := m.costAt(a+x), m.costAt(b+x)
			if ka == kb {
				for r := 0; r < reps; r++ {
					ca += fa
					ca += fb
				}
				continue
			}
			for r := 0; r < reps; r++ {
				ca += fa
				cb += fb
			}
		}
		if ka == kb {
			m.levels[ka] = ca
		} else {
			m.levels[ka], m.levels[kb] = ca, cb
		}
	}
}

// costAt returns f(x) through the compiled table (bit-identical to the
// direct formula). x must be a valid (non-negative) address.
func (m *Machine) costAt(x int64) float64 {
	if x < int64(len(m.dense)) {
		return m.dense[x]
	}
	return m.tab.Cost(x)
}

// CostAt returns f(x) without charging it — for assertions and
// reports.
func (m *Machine) CostAt(x int64) float64 {
	m.checkAddr(x)
	return m.costAt(x)
}

// chargeRange charges one access per address in [lo, hi), ascending —
// the exact accumulation order of per-word charge calls, so the
// resulting Cost is bit-identical. Callers must have bounds-checked the
// range and count the accesses' kind themselves.
func (m *Machine) chargeRange(lo, hi int64) {
	c := m.stats.Cost
	x := lo
	dh := hi
	if dh > int64(len(m.dense)) {
		dh = int64(len(m.dense))
	}
	for d := m.dense; x < dh; x++ {
		c += d[x]
	}
	for ; x < hi; x++ {
		c += m.tab.Cost(x)
	}
	m.stats.Cost = c
	if hi-1 > m.stats.MaxAddr {
		m.stats.MaxAddr = hi - 1
	}
	m.bumpDepthRange(lo, hi)
	if m.levels != nil {
		m.foldRange(lo, hi)
	}
}

// bumpDepthRange adds the addresses of [lo, hi) to the touch-depth
// profile, one segment per power-of-two bucket (same totals as calling
// charge per word).
func (m *Machine) bumpDepthRange(lo, hi int64) {
	for x := lo; x < hi; {
		_, end := segment(x)
		end = min(end, hi)
		m.stats.Depth[bits.Len64(uint64(x))] += end - x
		x = end
	}
}

// Read returns the word at address x, charging f(x).
//
// Read and Write account an unobserved access inside the dense cost
// prefix (which lies within memory) in line, exactly as charge would,
// and check every other access before leaving it to charge.
func (m *Machine) Read(x int64) Word {
	if uint64(x) < uint64(len(m.dense)) && m.levels == nil {
		m.stats.Cost += m.dense[x]
		if x > m.stats.MaxAddr {
			m.stats.MaxAddr = x
		}
		m.stats.Depth[bits.Len64(uint64(x))]++
	} else {
		m.checkAddr(x)
		m.charge(x)
	}
	m.stats.Reads++
	return m.mem[x]
}

// Write stores v at address x, charging f(x). See Read for its fast path.
func (m *Machine) Write(x int64, v Word) {
	if uint64(x) < uint64(len(m.dense)) && m.levels == nil {
		m.stats.Cost += m.dense[x]
		if x > m.stats.MaxAddr {
			m.stats.MaxAddr = x
		}
		m.stats.Depth[bits.Len64(uint64(x))]++
	} else {
		m.checkAddr(x)
		m.charge(x)
	}
	m.stats.Writes++
	m.mem[x] = v
}

// TransferBlock performs the BT model's pipelined block transfer of the
// b words [src, src+b) onto [dst, dst+b): it charges
// max(f(src+b-1), f(dst+b-1)) + b, notes both block ends as touched,
// moves the words like copy() and returns the charged cost. It counts
// no word accesses and checks nothing beyond the slice bounds: its
// caller, bt.Machine.BlockCopy, has checked both ranges and their
// disjointness.
func (m *Machine) TransferBlock(src, dst, b int64) float64 {
	x, y := src+b-1, dst+b-1
	c := m.costAt(x)
	if cy := m.costAt(y); cy > c {
		c = cy
	}
	c += float64(b)
	m.stats.Cost += c
	if hi := max(x, y); hi > m.stats.MaxAddr {
		m.stats.MaxAddr = hi
	}
	copy(m.mem[dst:dst+b], m.mem[src:src+b])
	return c
}

// ChargeOps charges n unit-time compute operations (no memory touched).
// It panics if n is negative.
func (m *Machine) ChargeOps(n int64) {
	if n < 0 {
		panic("hmm: negative op count")
	}
	m.stats.Cost += float64(n)
	m.stats.ComputeOps += n
}

// SwapWords exchanges the contents of addresses x and y, charging
// 2(f(x)+f(y)) — a read and a write at each address.
func (m *Machine) SwapWords(x, y int64) {
	vx := m.Read(x)
	vy := m.Read(y)
	m.Write(x, vy)
	m.Write(y, vx)
}

// MoveRange copies n words from [src, src+n) to [dst, dst+n), word by
// word (the plain HMM has no block transfer; each word costs
// f(src+i)+f(dst+i)). Overlapping ranges are handled like copy().
func (m *Machine) MoveRange(src, dst, n int64) {
	if n == 0 {
		return
	}
	m.checkAddr(src)
	m.checkAddr(src + n - 1)
	m.checkAddr(dst)
	m.checkAddr(dst + n - 1)
	// Fold the per-word charges f(src+i), f(dst+i) into the accumulator
	// in the exact order the word-by-word loop would, then move the
	// words with one copy. Bit-identical cost, same stats.
	c := m.stats.Cost
	if dst < src {
		for i := int64(0); i < n; i++ {
			c += m.costAt(src + i)
			c += m.costAt(dst + i)
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			c += m.costAt(src + i)
			c += m.costAt(dst + i)
		}
	}
	m.stats.Cost = c
	if m.levels != nil {
		m.foldPairs(src, dst, n, dst >= src, 1)
	}
	copy(m.mem[dst:dst+n], m.mem[src:src+n])
	m.stats.Reads += n
	m.stats.Writes += n
	m.bumpDepthRange(src, src+n)
	m.bumpDepthRange(dst, dst+n)
	if hi := max(src, dst) + n - 1; hi > m.stats.MaxAddr {
		m.stats.MaxAddr = hi
	}
}

// SwapRange exchanges the n-word ranges at a and b, which must not
// overlap. Each word costs a read and a write at both addresses.
func (m *Machine) SwapRange(a, b, n int64) {
	if n == 0 {
		return
	}
	if overlap(a, b, n) {
		panic(fmt.Sprintf("hmm: SwapRange overlap: a=%d b=%d n=%d", a, b, n))
	}
	m.checkAddr(a)
	m.checkAddr(a + n - 1)
	m.checkAddr(b)
	m.checkAddr(b + n - 1)
	// Per word, SwapWords charges f(a+i), f(b+i), f(a+i), f(b+i) (read
	// a, read b, write a, write b). Replicate that fold exactly, then
	// swap the words directly.
	c := m.stats.Cost
	for i := int64(0); i < n; i++ {
		ca, cb := m.costAt(a+i), m.costAt(b+i)
		c += ca
		c += cb
		c += ca
		c += cb
		m.mem[a+i], m.mem[b+i] = m.mem[b+i], m.mem[a+i]
	}
	m.stats.Cost = c
	if m.levels != nil {
		m.foldPairs(a, b, n, false, 2)
	}
	m.stats.Reads += 2 * n
	m.stats.Writes += 2 * n
	m.bumpDepthRange(a, a+n)
	m.bumpDepthRange(a, a+n)
	m.bumpDepthRange(b, b+n)
	m.bumpDepthRange(b, b+n)
	if hi := max(a, b) + n - 1; hi > m.stats.MaxAddr {
		m.stats.MaxAddr = hi
	}
}

// StreamWords copies n words from [src, src+n) to [dst, dst+n), which
// must not overlap, charging exactly like the ascending word loop
// `Write(dst+i, Read(src+i))` regardless of which range sits lower —
// the accumulation order streaming pipes rely on (MoveRange switches to
// a descending loop when dst > src to stay copy()-safe on overlap).
func (m *Machine) StreamWords(src, dst, n int64) {
	if n == 0 {
		return
	}
	if overlap(src, dst, n) {
		panic(fmt.Sprintf("hmm: StreamWords overlap: src=%d dst=%d n=%d", src, dst, n))
	}
	m.checkAddr(src)
	m.checkAddr(src + n - 1)
	m.checkAddr(dst)
	m.checkAddr(dst + n - 1)
	c := m.stats.Cost
	for i := int64(0); i < n; i++ {
		c += m.costAt(src + i)
		c += m.costAt(dst + i)
	}
	m.stats.Cost = c
	if m.levels != nil {
		m.foldPairs(src, dst, n, false, 1)
	}
	copy(m.mem[dst:dst+n], m.mem[src:src+n])
	m.stats.Reads += n
	m.stats.Writes += n
	m.bumpDepthRange(src, src+n)
	m.bumpDepthRange(dst, dst+n)
	if hi := max(src, dst) + n - 1; hi > m.stats.MaxAddr {
		m.stats.MaxAddr = hi
	}
}

func overlap(a, b, n int64) bool {
	if a > b {
		a, b = b, a
	}
	return a+n > b
}

// Touch reads the first n cells in order (the touching problem of
// Fact 1, cost Θ(n·f(n)) for (2,c)-uniform f).
func (m *Machine) Touch(n int64) {
	if n <= 0 {
		return
	}
	m.checkAddr(n - 1)
	m.chargeRange(0, n)
	m.stats.Reads += n
}

// ReadRange reads the len(dst) words at [addr, addr+len(dst)) into dst
// in ascending order, charging each word like Read.
func (m *Machine) ReadRange(addr int64, dst []Word) {
	n := int64(len(dst))
	if n == 0 {
		return
	}
	m.checkAddr(addr)
	m.checkAddr(addr + n - 1)
	m.chargeRange(addr, addr+n)
	m.stats.Reads += n
	copy(dst, m.mem[addr:addr+n])
}

// WriteRange stores src at [addr, addr+len(src)) in ascending order,
// charging each word like Write.
func (m *Machine) WriteRange(addr int64, src []Word) {
	n := int64(len(src))
	if n == 0 {
		return
	}
	m.checkAddr(addr)
	m.checkAddr(addr + n - 1)
	m.chargeRange(addr, addr+n)
	m.stats.Writes += n
	copy(m.mem[addr:addr+n], src)
}

// Peek returns the word at x without charging cost — for test
// assertions and snapshot rendering only.
func (m *Machine) Peek(x int64) Word {
	m.checkAddr(x)
	return m.mem[x]
}

// Poke stores v at x without charging cost — for test setup only.
func (m *Machine) Poke(x int64, v Word) {
	m.checkAddr(x)
	m.mem[x] = v
}

// Snapshot copies the n words starting at addr without charging cost —
// for assertions and rendering only. It panics if n is negative; an
// empty snapshot is valid for any addr (including one past the end).
func (m *Machine) Snapshot(addr, n int64) []Word {
	if n < 0 {
		panic(fmt.Sprintf("hmm: negative snapshot length %d", n))
	}
	if n == 0 {
		return []Word{}
	}
	m.checkAddr(addr)
	m.checkAddr(addr + n - 1)
	out := make([]Word, n)
	copy(out, m.mem[addr:addr+n])
	return out
}

// PokeRange stores src at [addr, addr+len(src)) without charging cost —
// the bulk form of Poke, for test and workload setup only.
func (m *Machine) PokeRange(addr int64, src []Word) {
	n := int64(len(src))
	if n == 0 {
		return
	}
	m.checkAddr(addr)
	m.checkAddr(addr + n - 1)
	copy(m.mem[addr:addr+n], src)
}
