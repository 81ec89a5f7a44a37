package hmm

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/obs"
)

func newFlat(size int64) *Machine { return New(cost.Const{C: 1}, size) }

func TestReadWriteRoundTrip(t *testing.T) {
	m := newFlat(16)
	m.Write(3, 42)
	if got := m.Read(3); got != 42 {
		t.Errorf("Read(3) = %d, want 42", got)
	}
	if got := m.Read(0); got != 0 {
		t.Errorf("Read(0) = %d, want zero-initialised 0", got)
	}
}

func TestCostAccounting(t *testing.T) {
	m := New(cost.Poly{Alpha: 0.5}, 1024)
	m.Write(100, 1) // f(100) = 10
	m.Read(100)     // f(100) = 10
	if got := m.Cost(); math.Abs(got-20) > 1e-9 {
		t.Errorf("Cost = %g, want 20", got)
	}
	st := m.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.MaxAddr != 100 {
		t.Errorf("Stats = %+v, want 1 read, 1 write, MaxAddr 100", st)
	}
}

func TestChargeOps(t *testing.T) {
	m := newFlat(1)
	m.ChargeOps(17)
	if m.Cost() != 17 || m.Stats().ComputeOps != 17 {
		t.Errorf("after ChargeOps(17): cost=%g ops=%d", m.Cost(), m.Stats().ComputeOps)
	}
}

func TestChargeOpsNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ChargeOps(-1) did not panic")
		}
	}()
	newFlat(1).ChargeOps(-1)
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(m *Machine){
		func(m *Machine) { m.Read(-1) },
		func(m *Machine) { m.Read(16) },
		func(m *Machine) { m.Write(16, 0) },
		func(m *Machine) { m.MoveRange(0, 10, 8) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on out-of-range access", i)
				}
			}()
			fn(newFlat(16))
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(cost.Log{}, -1)
}

func TestSwapWords(t *testing.T) {
	m := newFlat(8)
	m.Poke(1, 10)
	m.Poke(5, 50)
	m.SwapWords(1, 5)
	if m.Peek(1) != 50 || m.Peek(5) != 10 {
		t.Errorf("after SwapWords: [1]=%d [5]=%d, want 50, 10", m.Peek(1), m.Peek(5))
	}
	if m.Stats().Reads != 2 || m.Stats().Writes != 2 {
		t.Errorf("SwapWords stats = %+v, want 2 reads 2 writes", m.Stats())
	}
}

func TestMoveRangeForwardBackward(t *testing.T) {
	m := newFlat(16)
	for i := int64(0); i < 4; i++ {
		m.Poke(i, Word(i+1))
	}
	m.MoveRange(0, 8, 4) // disjoint
	for i := int64(0); i < 4; i++ {
		if m.Peek(8+i) != Word(i+1) {
			t.Fatalf("disjoint move: [%d]=%d, want %d", 8+i, m.Peek(8+i), i+1)
		}
	}
	// Overlapping move forward (dst > src) must behave like copy().
	m2 := newFlat(16)
	for i := int64(0); i < 6; i++ {
		m2.Poke(i, Word(i+1))
	}
	m2.MoveRange(0, 2, 6)
	for i := int64(0); i < 6; i++ {
		if m2.Peek(2+i) != Word(i+1) {
			t.Fatalf("overlap fwd: [%d]=%d, want %d", 2+i, m2.Peek(2+i), i+1)
		}
	}
	// Overlapping move backward.
	m3 := newFlat(16)
	for i := int64(0); i < 6; i++ {
		m3.Poke(2+i, Word(i+1))
	}
	m3.MoveRange(2, 0, 6)
	for i := int64(0); i < 6; i++ {
		if m3.Peek(i) != Word(i+1) {
			t.Fatalf("overlap bwd: [%d]=%d, want %d", i, m3.Peek(i), i+1)
		}
	}
}

func TestMoveRangeZeroLen(t *testing.T) {
	m := newFlat(4)
	m.MoveRange(0, 2, 0)
	if m.Cost() != 0 {
		t.Errorf("zero-length move charged %g", m.Cost())
	}
}

func TestSwapRange(t *testing.T) {
	m := newFlat(16)
	for i := int64(0); i < 4; i++ {
		m.Poke(i, Word(i+1))
		m.Poke(8+i, Word(100+i))
	}
	m.SwapRange(0, 8, 4)
	for i := int64(0); i < 4; i++ {
		if m.Peek(i) != Word(100+i) || m.Peek(8+i) != Word(i+1) {
			t.Fatalf("SwapRange mismatch at %d", i)
		}
	}
}

func TestSwapRangeOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SwapRange with overlap did not panic")
		}
	}()
	newFlat(16).SwapRange(0, 2, 4)
}

// Fact 1 on the mechanical machine: Touch(n) cost is Θ(n f(n)).
func TestTouchMatchesFact1(t *testing.T) {
	for _, f := range []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}} {
		for _, n := range []int64{256, 4096} {
			m := New(f, n)
			m.Touch(n)
			want := cost.TouchHMM(f, n)
			if math.Abs(m.Cost()-want) > 1e-6 {
				t.Errorf("%s n=%d: Touch cost %g, want exact sum %g", f.Name(), n, m.Cost(), want)
			}
		}
	}
}

// TestObservePublishesAccounting: Observe's per-level cost is the
// direct formula's f(x) folded per address bit-length in access order,
// bit for bit, through per-word and bulk operations alike, and publish
// exports the machine's own accounting. A nil observer attaches
// nothing.
func TestObservePublishesAccounting(t *testing.T) {
	f := cost.Poly{Alpha: 0.3}
	m := New(f, 1<<12)
	if m.Observe(nil, "hmm", nil)(); m.levels != nil {
		t.Fatal("Observe with a nil observer attached level costs")
	}
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	publish := m.Observe(o, "hmm", o.Ledger("hmm"))
	var want [DepthBuckets]float64
	fold := func(x int64) { want[bits.Len64(uint64(x))] += f.Cost(x) }
	for _, x := range []int64{0, 1, 3, 100, 1000, 3000, 4095, 7} {
		m.Write(x, 1)
		m.Read(x)
		fold(x) // the write
		fold(x) // the read
	}
	m.ReadRange(512, make([]Word, 64))
	for x := int64(512); x < 576; x++ {
		fold(x)
	}
	m.MoveRange(600, 40, 100) // dst below src: ascending
	for i := int64(0); i < 100; i++ {
		fold(600 + i)
		fold(40 + i)
	}
	m.MoveRange(2000, 2100, 300) // dst above src, overlapping: descending
	for i := int64(299); i >= 0; i-- {
		fold(2000 + i)
		fold(2100 + i)
	}
	m.SwapRange(1024, 3000, 50)
	for i := int64(0); i < 50; i++ {
		fold(1024 + i)
		fold(3000 + i)
		fold(1024 + i)
		fold(3000 + i)
	}
	m.StreamWords(3500, 700, 90)
	for i := int64(0); i < 90; i++ {
		fold(3500 + i)
		fold(700 + i)
	}
	m.ChargeOps(5)
	publish()

	st := m.Stats()
	if got := reg.FloatCounter("hmm.cost.total").Value(); got != st.Cost {
		t.Errorf("hmm.cost.total = %v, want %v", got, st.Cost)
	}
	for name, n := range map[string]int64{"hmm.reads": st.Reads, "hmm.writes": st.Writes,
		"hmm.computeops": 5} {
		if got := reg.Counter(name).Value(); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	if got := reg.Gauge("hmm.memory.words").Value(); got != 1<<12 {
		t.Errorf("hmm.memory.words = %d, want %d", got, 1<<12)
	}
	for k, n := range st.Depth {
		if got := reg.Counter(fmt.Sprintf("hmm.level.%d.accesses", k)).Value(); got != n {
			t.Errorf("level %d accesses = %d, want %d", k, got, n)
		}
		if got := reg.FloatCounter(fmt.Sprintf("hmm.level.%d.cost", k)).Value(); got != want[k] {
			t.Errorf("level %d cost = %v, want %v bit for bit", k, got, want[k])
		}
	}
}

func TestResetStatsAndAll(t *testing.T) {
	m := newFlat(8)
	m.Write(3, 7)
	m.ResetStats()
	if m.Cost() != 0 || m.Stats().Writes != 0 {
		t.Error("ResetStats did not clear stats")
	}
	if m.Peek(3) != 7 {
		t.Error("ResetStats cleared memory contents")
	}
	m.ResetAll()
	if m.Peek(3) != 0 {
		t.Error("ResetAll did not clear memory")
	}
}

func TestSnapshotDoesNotCharge(t *testing.T) {
	m := newFlat(8)
	m.Poke(1, 11)
	s := m.Snapshot(0, 4)
	if s[1] != 11 || m.Cost() != 0 {
		t.Errorf("Snapshot = %v cost=%g, want [0 11 0 0] cost 0", s, m.Cost())
	}
}

// Property: MoveRange preserves multiset content for disjoint ranges and
// cost equals Σ f(src+i) + f(dst+i).
func TestMoveRangeCostProperty(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	prop := func(rawN uint8) bool {
		n := int64(rawN%16) + 1
		m := New(f, 64)
		for i := int64(0); i < n; i++ {
			m.Poke(i, Word(i)*3+1)
		}
		m.MoveRange(0, 32, n)
		var want float64
		for i := int64(0); i < n; i++ {
			want += f.Cost(i) + f.Cost(32+i)
			if m.Peek(32+i) != Word(i)*3+1 {
				return false
			}
		}
		return math.Abs(m.Cost()-want) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDepthProfile(t *testing.T) {
	m := newFlat(1 << 12)
	m.Read(0)    // bucket 0
	m.Read(1)    // bucket 1
	m.Read(3)    // bucket 2
	m.Read(1000) // bucket 10
	st := m.Stats()
	if st.Depth[0] != 1 || st.Depth[1] != 1 || st.Depth[2] != 1 || st.Depth[10] != 1 {
		t.Errorf("depth profile wrong: %v", st.Depth[:12])
	}
	// Rebucket by explicit bounds: [0,8) level 0, [8, 512) level 1, rest 2.
	byLevel := st.DepthByBounds([]int64{8, 512})
	if byLevel[0] != 3 || byLevel[1] != 0 || byLevel[2] != 1 {
		t.Errorf("DepthByBounds = %v, want [3 0 1]", byLevel)
	}
}

func TestDepthProfileTouch(t *testing.T) {
	m := New(cost.Log{}, 1<<10)
	m.Touch(1 << 10)
	st := m.Stats()
	var total int64
	for _, n := range st.Depth {
		total += n
	}
	if total != 1<<10 {
		t.Errorf("depth total = %d, want 1024", total)
	}
}

// Regression: bits.Len64 of a valid large address reaches up to 63 (and
// 64 for negative-cast values); the Depth array must cover it. Before
// the fix Depth was [48]int64 and this charge panicked with an index out
// of range. charge() is called directly (white-box) because allocating
// 2^47 words of backing memory is not possible in a test.
func TestDepthDeepAddressRegression(t *testing.T) {
	m := New(cost.Const{C: 1}, 8)
	for _, x := range []int64{1 << 47, 1 << 62, math.MaxInt64} {
		m.charge(x)
		k := 0
		for v := x; v > 0; v >>= 1 {
			k++
		}
		if m.stats.Depth[k] == 0 {
			t.Errorf("charge(%d): Depth[%d] not incremented", x, k)
		}
	}
	if m.stats.MaxAddr != math.MaxInt64 {
		t.Errorf("MaxAddr = %d, want MaxInt64", m.stats.MaxAddr)
	}
}

// Table-driven zero-length edge cases: Snapshot(addr, 0) must not panic
// (its bound check used to evaluate addr-1), and the range operations
// accept n=0 at any addr including on an empty machine.
func TestZeroLengthEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		size int64
		op   func(m *Machine)
	}{
		{"snapshot addr=0 n=0 empty machine", 0, func(m *Machine) { m.Snapshot(0, 0) }},
		{"snapshot addr=0 n=0", 8, func(m *Machine) { m.Snapshot(0, 0) }},
		{"snapshot addr=size n=0", 8, func(m *Machine) { m.Snapshot(8, 0) }},
		{"move addr=0 n=0 empty machine", 0, func(m *Machine) { m.MoveRange(0, 0, 0) }},
		{"swap addr=0 n=0 empty machine", 0, func(m *Machine) { m.SwapRange(0, 0, 0) }},
		{"stream addr=0 n=0 empty machine", 0, func(m *Machine) { m.StreamWords(0, 0, 0) }},
		{"touch n=0 empty machine", 0, func(m *Machine) { m.Touch(0) }},
		{"readrange n=0", 8, func(m *Machine) { m.ReadRange(0, nil) }},
		{"writerange n=0", 8, func(m *Machine) { m.WriteRange(0, nil) }},
		{"pokerange n=0", 8, func(m *Machine) { m.PokeRange(0, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newFlat(tc.size)
			tc.op(m)
			if m.Cost() != 0 || m.Stats().Accesses() != 0 {
				t.Errorf("zero-length op charged cost=%g accesses=%d", m.Cost(), m.Stats().Accesses())
			}
		})
	}
	if got := len(New(cost.Log{}, 4).Snapshot(2, 0)); got != 0 {
		t.Errorf("Snapshot(_, 0) length = %d, want 0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Snapshot with negative n did not panic")
			}
		}()
		newFlat(8).Snapshot(0, -1)
	}()
}

// DepthByBounds must split a bucket straddling a boundary
// proportionally by the boundary position, with the parts summing to
// the bucket count exactly.
func TestDepthByBoundsProportionalSplit(t *testing.T) {
	var s Stats
	s.Depth[10] = 4 // bucket [512, 1024)
	// 768 splits the bucket in half: 2 accesses per side.
	if got := s.DepthByBounds([]int64{768}); got[0] != 2 || got[1] != 2 {
		t.Errorf("DepthByBounds({768}) = %v, want [2 2]", got)
	}
	// An odd count still sums exactly: floor(3*256/512)=1 below, 2 above.
	s.Depth[10] = 3
	if got := s.DepthByBounds([]int64{768}); got[0] != 1 || got[1] != 2 {
		t.Errorf("DepthByBounds({768}) = %v, want [1 2]", got)
	}
	// Multiple boundaries inside one bucket.
	s.Depth[10] = 8
	if got := s.DepthByBounds([]int64{640, 768, 896}); got[0] != 2 || got[1] != 2 || got[2] != 2 || got[3] != 2 {
		t.Errorf("DepthByBounds({640,768,896}) = %v, want [2 2 2 2]", got)
	}
	// Bucket entirely inside one level is assigned whole.
	s = Stats{}
	s.Depth[2] = 5 // [2, 4)
	if got := s.DepthByBounds([]int64{8, 512}); got[0] != 5 || got[1] != 0 || got[2] != 0 {
		t.Errorf("DepthByBounds = %v, want [5 0 0]", got)
	}
	// Deep buckets (including the bit-length-64 overflow bucket) land in
	// the last level without overflowing the share arithmetic.
	s = Stats{}
	s.Depth[48] = 1 << 40
	s.Depth[64] = 3
	got := s.DepthByBounds([]int64{8, 512})
	if got[2] != 1<<40+3 {
		t.Errorf("deep buckets: DepthByBounds = %v, want last level %d", got, int64(1<<40)+3)
	}
}

// perWord performs the bulk operations as single-word Read and Write
// calls in the order each operation's doc promises, folding f(x) into
// its level as it goes: the reference for TestBulkMatchesPerWordBitIdentical.
type perWord struct {
	m      *Machine
	levels [DepthBuckets]float64
}

func (p *perWord) read(x int64) Word {
	p.levels[bits.Len64(uint64(x))] += p.m.CostAt(x)
	return p.m.Read(x)
}

func (p *perWord) write(x int64, v Word) {
	p.levels[bits.Len64(uint64(x))] += p.m.CostAt(x)
	p.m.Write(x, v)
}

// copyWords copies n words, reading src+i before writing dst+i, for i
// ascending or descending.
func (p *perWord) copyWords(src, dst, n int64, ascending bool) {
	for j := int64(0); j < n; j++ {
		i := j
		if !ascending {
			i = n - 1 - j
		}
		p.write(dst+i, p.read(src+i))
	}
}

// swapWords exchanges n word pairs: read a+i, read b+i, write a+i,
// write b+i.
func (p *perWord) swapWords(a, b, n int64) {
	for i := int64(0); i < n; i++ {
		va, vb := p.read(a+i), p.read(b+i)
		p.write(a+i, vb)
		p.write(b+i, va)
	}
}

// Every bulk operation must charge bit-identically to the word-by-word
// loop it stands for, in the same accumulation order — the invariant
// the simulators' costs rest on — and, observed, must fold the same
// per-level costs bit for bit, including where its two ranges share a
// level (so the order between them matters).
func TestBulkMatchesPerWordBitIdentical(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	const size = 512
	bulkOut, wordOut := make([]Word, 77), make([]Word, 77)
	data := make([]Word, 50)
	for i := range data {
		data[i] = Word(3*i - 11)
	}
	ops := []struct {
		name string
		bulk func(m *Machine)
		word func(p *perWord)
	}{
		{"touch", func(m *Machine) { m.Touch(200) }, func(p *perWord) {
			for x := int64(0); x < 200; x++ {
				p.read(x)
			}
		}},
		{"move fwd", func(m *Machine) { m.MoveRange(150, 10, 64) },
			func(p *perWord) { p.copyWords(150, 10, 64, true) }},
		{"move bwd overlap", func(m *Machine) { m.MoveRange(10, 40, 64) },
			func(p *perWord) { p.copyWords(10, 40, 64, false) }},
		{"move up within a level", func(m *Machine) { m.MoveRange(130, 200, 40) },
			func(p *perWord) { p.copyWords(130, 200, 40, false) }},
		{"move down within a level", func(m *Machine) { m.MoveRange(300, 260, 100) },
			func(p *perWord) { p.copyWords(300, 260, 100, true) }},
		{"swap", func(m *Machine) { m.SwapRange(0, 128, 64) },
			func(p *perWord) { p.swapWords(0, 128, 64) }},
		{"swap within a level", func(m *Machine) { m.SwapRange(300, 400, 64) },
			func(p *perWord) { p.swapWords(300, 400, 64) }},
		{"stream up", func(m *Machine) { m.StreamWords(5, 100, 32) },
			func(p *perWord) { p.copyWords(5, 100, 32, true) }},
		{"stream down", func(m *Machine) { m.StreamWords(100, 5, 32) },
			func(p *perWord) { p.copyWords(100, 5, 32, true) }},
		{"stream within a level", func(m *Machine) { m.StreamWords(390, 260, 60) },
			func(p *perWord) { p.copyWords(390, 260, 60, true) }},
		{"readrange", func(m *Machine) { m.ReadRange(33, bulkOut) }, func(p *perWord) {
			for i := range wordOut {
				wordOut[i] = p.read(33 + int64(i))
			}
		}},
		{"writerange", func(m *Machine) { m.WriteRange(90, data) }, func(p *perWord) {
			for i, v := range data {
				p.write(90+int64(i), v)
			}
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			bulk := New(f, size)
			word := &perWord{m: New(f, size)}
			for i := int64(0); i < size; i++ {
				bulk.Poke(i, i*7+1)
				word.m.Poke(i, i*7+1)
			}
			reg := obs.NewRegistry()
			o := obs.New(reg, nil)
			publish := bulk.Observe(o, "hmm", o.Ledger("hmm"))
			op.bulk(bulk)
			publish()
			op.word(word)
			if bc, wc := bulk.Cost(), word.m.Cost(); math.Float64bits(bc) != math.Float64bits(wc) {
				t.Errorf("bulk cost %v (bits %x) != per-word cost %v (bits %x)",
					bc, math.Float64bits(bc), wc, math.Float64bits(wc))
			}
			bs, ws := bulk.Stats(), word.m.Stats()
			if bs != ws {
				t.Errorf("stats diverged:\nbulk: %+v\nword: %+v", bs, ws)
			}
			if got, want := bulk.Snapshot(0, size), word.m.Snapshot(0, size); !slicesEqual(got, want) {
				t.Error("memory contents diverged between bulk and per-word paths")
			}
			for k, want := range word.levels {
				got := reg.FloatCounter(fmt.Sprintf("hmm.level.%d.cost", k)).Value()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("level %d cost %v (bits %x), per-word fold %v (bits %x)",
						k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		})
	}
	if !slicesEqual(bulkOut, wordOut) {
		t.Error("ReadRange returned different words than per-word reads")
	}
}

func slicesEqual(a, b []Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CostAt must be an uncharged exact f(x) lookup.
func TestCostAt(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	m := New(f, 1024)
	for _, x := range []int64{0, 1, 100, 1023} {
		if got, want := m.CostAt(x), f.Cost(x); got != want {
			t.Errorf("CostAt(%d) = %v, want %v", x, got, want)
		}
	}
	if m.Cost() != 0 {
		t.Errorf("CostAt charged %g", m.Cost())
	}
}

// TransferBlock charges max(f(src end), f(dst end)) + b, notes the
// higher block end as touched, counts no word access and moves the
// words like copy().
func TestTransferBlock(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	m := New(f, 64)
	for i := int64(0); i < 4; i++ {
		m.Poke(40+i, i+1)
	}
	want := f.Cost(43) + 4
	if got := m.TransferBlock(40, 8, 4); got != want {
		t.Errorf("TransferBlock returned %v, want %v", got, want)
	}
	for i := int64(0); i < 4; i++ {
		if m.Peek(8+i) != i+1 {
			t.Fatalf("TransferBlock: [%d] = %d, want %d", 8+i, m.Peek(8+i), i+1)
		}
	}
	st := m.Stats()
	if st.Cost != want || st.Accesses() != 0 || st.MaxAddr != 43 {
		t.Errorf("TransferBlock accounting: cost=%g accesses=%d maxAddr=%d, want %g, 0, 43",
			st.Cost, st.Accesses(), st.MaxAddr, want)
	}
}
