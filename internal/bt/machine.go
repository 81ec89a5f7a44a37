// Package bt implements the Hierarchical Memory Model with Block
// Transfer of Aggarwal, Chandra and Snir (paper reference [2]): an
// f(x)-HMM augmented with a pipelined block copy — moving a block of b
// cells ending at address x onto a disjoint block ending at address y
// costs max(f(x), f(y)) + b, independent of per-word access costs.
//
// The block transfer is what lets the Section 5 simulation hide access
// costs almost completely (Theorem 12's bound does not depend on f);
// this package also provides the Fact 2 touching algorithm whose
// Θ(n·f*(n)) cost is the model's fundamental lower bound for
// input-examining problems. BlockCopy checks a transfer's ranges and
// their disjointness once; the embedded HMM's TransferBlock then
// charges the transfer and moves the words.
package bt

import (
	"fmt"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/hmm"
	"repro/internal/obs"
)

// Word is the unit of BT storage.
type Word = hmm.Word

// BlockStats counts block-transfer activity separately from word
// accesses (which the embedded HMM machine counts).
type BlockStats struct {
	// Copies is the number of BlockCopy operations performed.
	Copies int64
	// Words is the total number of words moved by block transfer.
	Words int64
	// Cost is the model time charged to block transfers alone:
	// Σ (max(f(x), f(y)) + b).
	Cost float64
	// Sizes[k] counts the transfers whose length b has bit-length k
	// (obs.BucketOf(b)): the block-size profile Observe publishes.
	Sizes [hmm.DepthBuckets]int64
}

// Machine is an f(x)-BT machine. It embeds an f(x)-HMM, so all word
// operations (Read, Write, SwapWords, ...) and their costs carry over;
// BlockCopy adds the pipelined transfer.
type Machine struct {
	*hmm.Machine
	blocks BlockStats
}

// New returns an f(x)-BT machine with size words of zeroed memory.
func New(f cost.Func, size int64) *Machine {
	return &Machine{Machine: hmm.New(f, size)}
}

// BlockStats returns a copy of the block-transfer statistics.
func (m *Machine) BlockStats() BlockStats { return m.blocks }

// Observe extends the embedded HMM's Observe with the block-transfer
// accounting: the returned publish, called after the run, also adds
// <sim>.blocks.copies, .moved and .cost, and loads the block-size
// histogram <sim>.blocks.words from BlockStats.Sizes with the exact
// sum BlockStats.Words. With a nil o, publish does nothing.
func (m *Machine) Observe(o *obs.Observer, sim string, l *obs.Ledger) (publish func()) {
	publishHMM := m.Machine.Observe(o, sim, l)
	if o == nil {
		return publishHMM
	}
	return func() {
		publishHMM()
		bs := m.blocks
		o.Counter(sim + ".blocks.copies").Add(bs.Copies)
		o.Counter(sim + ".blocks.moved").Add(bs.Words)
		o.FloatCounter(sim + ".blocks.cost").Add(bs.Cost)
		o.Histogram(sim+".blocks.words").AddBuckets(bs.Sizes[:], bs.Words)
	}
}

// ResetStats zeroes both HMM and block-transfer accounting.
func (m *Machine) ResetStats() {
	m.Machine.ResetStats()
	m.blocks = BlockStats{}
}

// BlockCopy copies the b-word block ending at address x onto the
// disjoint b-word block ending at address y, charging
// max(f(x), f(y)) + b (paper Section 2, BT definition). The source
// block is [x-b+1, x] and the destination [y-b+1, y]; they must lie in
// memory and must not overlap. b must be >= 1.
func (m *Machine) BlockCopy(x, y, b int64) {
	if b < 1 {
		panic(fmt.Sprintf("bt: BlockCopy with b=%d < 1", b))
	}
	srcLo, dstLo := x-b+1, y-b+1
	if srcLo < 0 || x >= m.Size() || dstLo < 0 || y >= m.Size() {
		panic(fmt.Sprintf("bt: BlockCopy out of range: src [%d,%d] dst [%d,%d] size %d",
			srcLo, x, dstLo, y, m.Size()))
	}
	if srcLo <= y && dstLo <= x {
		panic(fmt.Sprintf("bt: BlockCopy overlap: src [%d,%d] dst [%d,%d]", srcLo, x, dstLo, y))
	}
	// The checks above are the transfer's only ones: the HMM prices and
	// moves the pipelined block without per-word charges or checks.
	c := m.TransferBlock(srcLo, dstLo, b)
	m.blocks.Copies++
	m.blocks.Words += b
	m.blocks.Cost += c
	m.blocks.Sizes[bits.Len64(uint64(b))]++
}

// CopyRange copies n words from [src, src+n) to [dst, dst+n) using a
// single block transfer (n >= 1). It is BlockCopy expressed with range
// starts instead of range ends.
func (m *Machine) CopyRange(src, dst, n int64) {
	m.BlockCopy(src+n-1, dst+n-1, n)
}

// SwapRangeBT exchanges the disjoint n-word ranges at a and b using
// three block transfers via the scratch range [scratch, scratch+n),
// which must be disjoint from both. This is the constant-block-transfer
// swap the Section 5 simulation relies on buffer space for.
func (m *Machine) SwapRangeBT(a, b, n, scratch int64) {
	if n == 0 {
		return
	}
	m.CopyRange(a, scratch, n)
	m.CopyRange(b, a, n)
	m.CopyRange(scratch, b, n)
}

// Touch examines the first n cells using the recursive block-transfer
// schedule of [2], achieving the Fact 2 bound Θ(n·f*(n)). Memory
// contents in [0, n) are left unspecified (chunks are copied over the
// top of memory), which is fine for the cost experiment it supports.
// It panics if n exceeds the memory size.
func (m *Machine) Touch(n int64) {
	if n > m.Size() {
		panic(fmt.Sprintf("bt: Touch(%d) exceeds memory size %d", n, m.Size()))
	}
	m.touchRec(n)
}

func (m *Machine) touchRec(n int64) {
	const base = 4
	if n <= base {
		for x := int64(0); x < n; x++ {
			m.Read(x)
		}
		return
	}
	// Chunk size ~ f(n), clamped to [1, n/2]: balances the per-chunk
	// transfer setup f(n) against chunk length.
	f := m.AccessFunc()
	c := int64(f.Cost(n))
	if c < 1 {
		c = 1
	}
	if c > n/2 {
		c = n / 2
	}
	// First chunk is already at the top of memory.
	m.touchRec(c)
	for s := c; s < n; s += c {
		b := c
		if s+b > n {
			b = n - s
		}
		m.CopyRange(s, 0, b)
		m.touchRec(b)
	}
}
