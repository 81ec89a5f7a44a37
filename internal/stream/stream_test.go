package stream

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bt"
	"repro/internal/cost"
)

// build returns a machine with a region of n sequential words at off,
// leaving [0, off) for hot pages and cold workspaces: hot pages for up
// to four cascades at [0, 4·hot), cold regions after.
func build(f cost.Func, n int64) (m *bt.Machine, g *Geometry, off int64) {
	mach := bt.New(f, 8*n+8192)
	geo := NewGeometry(f, n)
	regionOff := 4*geo.HotWords() + 4*geo.ColdWords() + 64
	for i := int64(0); i < n; i++ {
		mach.Poke(regionOff+i, 1000+i)
	}
	return mach, geo, regionOff
}

// hotcold returns the hot and cold offsets for cascade slot k.
func hotcold(g *Geometry, k int64) (hot, cold int64) {
	return k * g.HotWords(), 4*g.HotWords() + k*g.ColdWords()
}

func TestReaderSequential(t *testing.T) {
	m, g, off := build(cost.Poly{Alpha: 0.5}, 1000)
	hot, cold := hotcold(g, 0)
	r := NewReader(m, g, hot, cold, off, 1000)
	for i := int64(0); i < 1000; i++ {
		if !r.More() {
			t.Fatalf("exhausted at %d", i)
		}
		if got := r.Next(); got != 1000+i {
			t.Fatalf("word %d = %d, want %d", i, got, 1000+i)
		}
	}
	if r.More() {
		t.Error("More() after end")
	}
	if r.Consumed() != 1000 {
		t.Errorf("Consumed = %d", r.Consumed())
	}
}

func TestReaderPeekIsStable(t *testing.T) {
	m, g, off := build(cost.Log{}, 100)
	hot, cold := hotcold(g, 0)
	r := NewReader(m, g, hot, cold, off, 100)
	if r.Peek() != r.Peek() || r.Peek() != 1000 {
		t.Error("Peek not stable")
	}
	r.Next()
	if r.Peek() != 1001 {
		t.Error("Peek after Next wrong")
	}
}

func TestReaderPanicsPastEnd(t *testing.T) {
	m, g, off := build(cost.Log{}, 4)
	hot, cold := hotcold(g, 0)
	r := NewReader(m, g, hot, cold, off, 4)
	for i := 0; i < 4; i++ {
		r.Next()
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic past end")
		}
	}()
	r.Next()
}

func TestReaderEmpty(t *testing.T) {
	m, g, off := build(cost.Log{}, 10)
	hot, cold := hotcold(g, 0)
	r := NewReader(m, g, hot, cold, off, 0)
	if r.More() {
		t.Error("empty reader has More()")
	}
}

func TestWriterRoundTrip(t *testing.T) {
	m, g, off := build(cost.Poly{Alpha: 0.5}, 777)
	dst := off + 2000
	hot, cold := hotcold(g, 1)
	w := NewWriter(m, g, hot, cold, dst, 777)
	for i := int64(0); i < 777; i++ {
		w.Put(7 * i)
	}
	w.Close()
	if w.Written() != 777 {
		t.Errorf("Written = %d", w.Written())
	}
	for i := int64(0); i < 777; i++ {
		if got := m.Peek(dst + i); got != 7*i {
			t.Fatalf("dst[%d] = %d, want %d", i, got, 7*i)
		}
	}
}

func TestWriterCapacityPanic(t *testing.T) {
	m, g, off := build(cost.Log{}, 10)
	hot, cold := hotcold(g, 0)
	w := NewWriter(m, g, hot, cold, off, 2)
	w.Put(1)
	w.Put(2)
	defer func() {
		if recover() == nil {
			t.Error("no panic past capacity")
		}
	}()
	w.Put(3)
}

// Read-modify-write over the same region: the writer trails the reader,
// so in-place transformation is safe.
func TestInPlaceTransform(t *testing.T) {
	n := int64(5000)
	m, g, off := build(cost.Poly{Alpha: 0.5}, n)
	rh, rc := hotcold(g, 0)
	wh, wc := hotcold(g, 1)
	r := NewReader(m, g, rh, rc, off, n)
	w := NewWriter(m, g, wh, wc, off, n)
	for r.More() {
		w.Put(r.Next() * 2)
	}
	w.Close()
	for i := int64(0); i < n; i++ {
		if got := m.Peek(off + i); got != 2*(1000+i) {
			t.Fatalf("in-place transform wrong at %d: %d", i, got)
		}
	}
}

// Streaming must beat word-at-a-time access for steep f: cost O(n·f*(n))
// vs Θ(n·f(n)).
func TestStreamingCostShape(t *testing.T) {
	for _, f := range []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}} {
		var lo, hi = math.Inf(1), 0.0
		for _, n := range []int64{1 << 10, 1 << 14, 1 << 17} {
			m, g, off := build(f, n)
			m.ResetStats()
			hot, cold := hotcold(g, 0)
			r := NewReader(m, g, hot, cold, off, n)
			for r.More() {
				r.Next()
			}
			perWord := m.Cost() / float64(n)
			ratio := perWord / float64(cost.FStar(f, n))
			if ratio < lo {
				lo = ratio
			}
			if ratio > hi {
				hi = ratio
			}
		}
		if hi/lo > 4 {
			t.Errorf("%s: streaming cost per word drifts beyond f*: lo=%g hi=%g", f.Name(), lo, hi)
		}
		// And it must be far below f(n) per word.
		n := int64(1 << 17)
		m, g, off := build(f, n)
		m.ResetStats()
		hot2, cold2 := hotcold(g, 0)
		r := NewReader(m, g, hot2, cold2, off, n)
		for r.More() {
			r.Next()
		}
		if m.Cost() > float64(n)*f.Cost(n)/3 {
			t.Errorf("%s: streaming (%g) not clearly below word-at-a-time (%g)",
				f.Name(), m.Cost(), float64(n)*f.Cost(n))
		}
	}
}

func TestGeometryShape(t *testing.T) {
	g := NewGeometry(cost.Poly{Alpha: 0.5}, 1<<20)
	if g.Stages() < 2 {
		t.Errorf("expected multi-stage cascade, got %d", g.Stages())
	}
	for j := 1; j < len(g.chunk); j++ {
		if g.chunk[j] <= g.chunk[j-1] {
			t.Errorf("chunks not increasing: %v", g.chunk)
		}
	}
	if g.ColdWords() > 8*int64(cost.Poly{Alpha: 0.5}.Cost(1<<21)) {
		t.Errorf("workspace too large: %d", g.ColdWords())
	}
	if g.HotWords() != minChunk {
		t.Errorf("HotWords = %d, want %d", g.HotWords(), minChunk)
	}
}

func TestReaderWriterProperty(t *testing.T) {
	prop := func(vals []int32) bool {
		n := int64(len(vals))
		m := bt.New(cost.Log{}, 4*n+2048)
		g := NewGeometry(cost.Log{}, n)
		off := 2*g.HotWords() + 2*g.ColdWords() + 16
		wh, wc := hotcold2(g, 0)
		w := NewWriter(m, g, wh, wc, off, n)
		for _, v := range vals {
			w.Put(int64(v))
		}
		w.Close()
		rh, rc := hotcold2(g, 1)
		r := NewReader(m, g, rh, rc, off, n)
		for _, v := range vals {
			if r.Next() != int64(v) {
				return false
			}
		}
		return !r.More()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// hotcold2 lays out two cascades: hots first, colds after.
func hotcold2(g *Geometry, k int64) (hot, cold int64) {
	return k * g.HotWords(), 2*g.HotWords() + k*g.ColdWords()
}

// Pipe must charge the exact model cost of the word loop it replaces,
// bit for bit and in the same accumulation order — piping between two
// regions on identical machines must leave identical cost bits, stats
// and memory. Mixed word/bulk interleavings exercise the flush/refill
// boundary words.
func TestPipeMatchesWordLoopBitIdentical(t *testing.T) {
	for _, f := range []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}} {
		for _, n := range []int64{1, 31, 32, 33, 100, 1000} {
			mA, g, off := build(f, 2000)
			mB, _, _ := build(f, 2000)
			dst := off + 1000

			hotR, coldR := hotcold(g, 0)
			hotW, coldW := hotcold(g, 1)
			rA := NewReader(mA, g, hotR, coldR, off, n)
			wA := NewWriter(mA, g, hotW, coldW, dst, n)
			rB := NewReader(mB, g, hotR, coldR, off, n)
			wB := NewWriter(mB, g, hotW, coldW, dst, n)

			for i := int64(0); i < n; i++ {
				wA.Put(rA.Next())
			}
			wA.Close()
			Pipe(rB, wB, n)
			wB.Close()

			ca, cb := mA.Cost(), mB.Cost()
			if math.Float64bits(ca) != math.Float64bits(cb) {
				t.Fatalf("%s n=%d: word-loop cost %v != Pipe cost %v", f.Name(), n, ca, cb)
			}
			if mA.Stats() != mB.Stats() {
				t.Fatalf("%s n=%d: stats diverged:\nword: %+v\npipe: %+v",
					f.Name(), n, mA.Stats(), mB.Stats())
			}
			for i := int64(0); i < n; i++ {
				if mA.Peek(dst+i) != mB.Peek(dst+i) {
					t.Fatalf("%s n=%d: word %d diverged", f.Name(), n, i)
				}
			}
		}
	}
}

// A Pipe interleaved with word-level Next/Put (as the btsim delivery
// scans do around special offsets) must also match.
func TestPipeInterleavedWithWords(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	const n = 500
	mA, g, off := build(f, 2*n)
	mB, _, _ := build(f, 2*n)
	dst := off + n

	hotR, coldR := hotcold(g, 0)
	hotW, coldW := hotcold(g, 1)
	rA := NewReader(mA, g, hotR, coldR, off, n)
	wA := NewWriter(mA, g, hotW, coldW, dst, n)
	rB := NewReader(mB, g, hotR, coldR, off, n)
	wB := NewWriter(mB, g, hotW, coldW, dst, n)

	// A: all word-level. B: words at the "special" offsets, pipes between.
	for i := int64(0); i < n; i++ {
		wA.Put(rA.Next())
	}
	wA.Close()
	segs := []int64{7, 100, 1, 250, n - 7 - 100 - 1 - 250 - 5}
	for _, seg := range segs {
		Pipe(rB, wB, seg)
		wB.Put(rB.Next()) // special word
	}
	if rB.More() {
		Pipe(rB, wB, n-rB.Consumed())
	}
	wB.Close()

	if math.Float64bits(mA.Cost()) != math.Float64bits(mB.Cost()) {
		t.Fatalf("interleaved: word-loop cost %v != piped cost %v", mA.Cost(), mB.Cost())
	}
	for i := int64(0); i < n; i++ {
		if mA.Peek(dst+i) != mB.Peek(dst+i) {
			t.Fatalf("interleaved: word %d diverged", i)
		}
	}
}

// Pipe across two different machines is a caller bug.
func TestPipeAcrossMachinesPanics(t *testing.T) {
	f := cost.Log{}
	mA, g, off := build(f, 100)
	mB, _, _ := build(f, 100)
	hotR, coldR := hotcold(g, 0)
	hotW, coldW := hotcold(g, 1)
	r := NewReader(mA, g, hotR, coldR, off, 10)
	w := NewWriter(mB, g, hotW, coldW, off, 10)
	defer func() {
		if recover() == nil {
			t.Error("Pipe across machines did not panic")
		}
	}()
	Pipe(r, w, 10)
}

// A reader and writer reopened with Reset, after a partial pass that
// left words staged, copy a region exactly like freshly opened ones:
// same words, same cost bits, same statistics.
func TestResetMatchesFresh(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	const n = 700
	copyRegion := func(reuse bool) *bt.Machine {
		m, g, off := build(f, n)
		rh, rc := hotcold(g, 0)
		wh, wc := hotcold(g, 1)
		dst := off + n
		r := NewReader(m, g, rh, rc, off, n)
		w := NewWriter(m, g, wh, wc, dst, n)
		if reuse {
			for i := 0; i < 100; i++ {
				w.Put(r.Next())
			}
			m.ResetStats()
			r.Reset(off, n)
			w.Reset(dst, n)
		}
		for r.More() {
			w.Put(r.Next())
		}
		w.Close()
		return m
	}
	fresh, reused := copyRegion(false), copyRegion(true)
	if a, b := fresh.Cost(), reused.Cost(); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("reset cascade charged %v, fresh %v", b, a)
	}
	if fresh.Stats() != reused.Stats() || fresh.BlockStats() != reused.BlockStats() {
		t.Errorf("statistics diverged:\nfresh %+v %+v\nreset %+v %+v",
			fresh.Stats(), fresh.BlockStats(), reused.Stats(), reused.BlockStats())
	}
	_, _, off := build(f, n)
	for i := int64(0); i < n; i++ {
		if got := reused.Peek(off + n + i); got != 1000+i {
			t.Fatalf("word %d = %d after reset copy, want %d", i, got, 1000+i)
		}
	}
}
