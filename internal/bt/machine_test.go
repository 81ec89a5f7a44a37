package bt

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/obs"
)

func TestBlockCopyMovesWords(t *testing.T) {
	m := New(cost.Const{C: 1}, 32)
	for i := int64(0); i < 4; i++ {
		m.Poke(i, Word(i+1))
	}
	m.BlockCopy(3, 19, 4) // [0,3] -> [16,19]
	for i := int64(0); i < 4; i++ {
		if got := m.Peek(16 + i); got != Word(i+1) {
			t.Fatalf("dst[%d] = %d, want %d", i, got, i+1)
		}
		if got := m.Peek(i); got != Word(i+1) {
			t.Fatalf("src[%d] clobbered: %d", i, got)
		}
	}
}

func TestBlockCopyCost(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	m := New(f, 1024)
	m.BlockCopy(99, 899, 50)
	want := math.Max(f.Cost(99), f.Cost(899)) + 50
	if math.Abs(m.Cost()-want) > 1e-9 {
		t.Errorf("cost = %g, want max(f(99),f(899))+50 = %g", m.Cost(), want)
	}
	bs := m.BlockStats()
	if bs.Copies != 1 || bs.Words != 50 || math.Abs(bs.Cost-want) > 1e-9 {
		t.Errorf("BlockStats = %+v, want 1 copy, 50 words, cost %g", bs, want)
	}
}

// TestObservePublishesBlocks: Observe publishes the block accounting
// after the run. The bt.blocks.words histogram loaded from
// BlockStats.Sizes equals one that observed every transfer length, with
// the exact sum; the embedded HMM's accounting is published too, and a
// nil observer publishes nothing.
func TestObservePublishesBlocks(t *testing.T) {
	m := New(cost.Poly{Alpha: 0.5}, 4096)
	m.Observe(nil, "bt", nil)()
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	publish := m.Observe(o, "bt", o.Ledger("bt"))
	var want obs.Histogram
	for _, b := range []int64{3, 5, 1000, 1, 5, 64} {
		m.CopyRange(0, 2048, b)
		want.Observe(b)
	}
	m.Read(7)
	publish()

	bs := m.BlockStats()
	h := reg.Histogram("bt.blocks.words")
	if h.Count() != bs.Copies || h.Sum() != bs.Words || bs.Words != 1078 ||
		!reflect.DeepEqual(h.Buckets(), want.Buckets()) {
		t.Errorf("bt.blocks.words: count %d sum %d buckets %v; want %d, %d (= 1078), %v",
			h.Count(), h.Sum(), h.Buckets(), bs.Copies, bs.Words, want.Buckets())
	}
	if got := reg.Counter("bt.blocks.copies").Value(); got != 6 {
		t.Errorf("bt.blocks.copies = %d, want 6", got)
	}
	if got := reg.Counter("bt.blocks.moved").Value(); got != bs.Words {
		t.Errorf("bt.blocks.moved = %d, want %d", got, bs.Words)
	}
	if got := reg.FloatCounter("bt.blocks.cost").Value(); got != bs.Cost {
		t.Errorf("bt.blocks.cost = %v, want %v", got, bs.Cost)
	}
	if got := reg.FloatCounter("bt.cost.total").Value(); got != m.Cost() {
		t.Errorf("bt.cost.total = %v, want %v", got, m.Cost())
	}
	if got := reg.Counter("bt.reads").Value(); got != 1 {
		t.Errorf("bt.reads = %d, want 1", got)
	}
}

func TestBlockCopyRejectsBadArgs(t *testing.T) {
	cases := []func(m *Machine){
		func(m *Machine) { m.BlockCopy(3, 19, 0) },   // b < 1
		func(m *Machine) { m.BlockCopy(3, 5, 4) },    // overlap
		func(m *Machine) { m.BlockCopy(2, 19, 4) },   // src underflow
		func(m *Machine) { m.BlockCopy(3, 100, 4) },  // dst out of range
		func(m *Machine) { m.BlockCopy(100, 50, 4) }, // src out of range
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn(New(cost.Const{C: 1}, 32))
		}()
	}
}

func TestBlockCopyAdjacentIsNotOverlap(t *testing.T) {
	m := New(cost.Const{C: 1}, 32)
	m.Poke(0, 7)
	m.BlockCopy(3, 7, 4) // [0,3] -> [4,7]: adjacent, disjoint
	if m.Peek(4) != 7 {
		t.Error("adjacent copy failed")
	}
}

func TestCopyRange(t *testing.T) {
	m := New(cost.Const{C: 1}, 32)
	for i := int64(0); i < 5; i++ {
		m.Poke(10+i, Word(i)*2)
	}
	m.CopyRange(10, 20, 5)
	for i := int64(0); i < 5; i++ {
		if m.Peek(20+i) != Word(i)*2 {
			t.Fatalf("CopyRange mismatch at %d", i)
		}
	}
}

func TestSwapRangeBT(t *testing.T) {
	m := New(cost.Const{C: 1}, 64)
	for i := int64(0); i < 8; i++ {
		m.Poke(i, Word(i+1))
		m.Poke(16+i, Word(100+i))
	}
	m.SwapRangeBT(0, 16, 8, 32)
	for i := int64(0); i < 8; i++ {
		if m.Peek(i) != Word(100+i) || m.Peek(16+i) != Word(i+1) {
			t.Fatalf("SwapRangeBT mismatch at %d: %d %d", i, m.Peek(i), m.Peek(16+i))
		}
	}
	if got := m.BlockStats().Copies; got != 3 {
		t.Errorf("SwapRangeBT used %d block copies, want 3", got)
	}
	m.SwapRangeBT(0, 16, 0, 32) // n == 0 is a no-op
	if got := m.BlockStats().Copies; got != 3 {
		t.Errorf("zero-length swap performed copies")
	}
}

// Fact 2: touching n cells on f(x)-BT costs Θ(n f*(n)) — enormously less
// than the HMM's Θ(n f(n)).
func TestTouchFact2Shape(t *testing.T) {
	for _, f := range []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}} {
		var lo, hi float64 = math.Inf(1), 0
		for n := int64(1 << 10); n <= 1<<18; n *= 4 {
			m := New(f, n)
			m.Touch(n)
			ratio := m.Cost() / (float64(n) * float64(cost.FStar(f, n)))
			if ratio < lo {
				lo = ratio
			}
			if ratio > hi {
				hi = ratio
			}
		}
		if lo <= 0 || hi/lo > 6 {
			t.Errorf("%s: Fact 2 ratio drifts: lo=%g hi=%g", f.Name(), lo, hi)
		}
	}
}

func TestTouchBeatsHMMTouch(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	n := int64(1 << 16)
	m := New(f, n)
	m.Touch(n)
	hmmCost := cost.TouchHMM(f, n) // Θ(n f(n)) = Θ(n^1.5)
	if m.Cost() >= hmmCost/4 {
		t.Errorf("BT touch %g not clearly below HMM touch %g", m.Cost(), hmmCost)
	}
}

func TestTouchSmallN(t *testing.T) {
	m := New(cost.Log{}, 16)
	m.Touch(3)
	if m.Stats().Reads != 3 {
		t.Errorf("Touch(3) reads = %d, want 3 direct reads", m.Stats().Reads)
	}
}

func TestTouchTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Touch beyond size did not panic")
		}
	}()
	New(cost.Log{}, 8).Touch(9)
}

func TestResetStatsClearsBlocks(t *testing.T) {
	m := New(cost.Const{C: 1}, 32)
	m.BlockCopy(3, 19, 4)
	m.ResetStats()
	if m.Cost() != 0 || m.BlockStats() != (BlockStats{}) {
		t.Errorf("ResetStats left block stats %+v", m.BlockStats())
	}
}

// Property: BlockCopy preserves source content and copies exactly b words.
func TestBlockCopyProperty(t *testing.T) {
	prop := func(rawB uint8, seed int64) bool {
		b := int64(rawB%16) + 1
		m := New(cost.Log{}, 64)
		for i := int64(0); i < b; i++ {
			m.Poke(i, seed+Word(i))
		}
		m.BlockCopy(b-1, 32+b-1, b)
		for i := int64(0); i < b; i++ {
			if m.Peek(i) != seed+Word(i) || m.Peek(32+i) != seed+Word(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
