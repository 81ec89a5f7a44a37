package cost

import (
	"testing"
	"testing/quick"
)

func TestChunkIsPowerOfTwoAndBounded(t *testing.T) {
	funcs := []Func{Poly{Alpha: 0.5}, Poly{Alpha: 0.3}, Log{}}
	for _, f := range funcs {
		for _, mu := range []int64{1, 4, 16} {
			for n := int64(2); n <= 1<<16; n *= 2 {
				c := Chunk(f, mu, n)
				if c < 1 {
					t.Fatalf("%s mu=%d n=%d: Chunk=%d < 1", f.Name(), mu, n, c)
				}
				if c&(c-1) != 0 {
					t.Errorf("%s mu=%d n=%d: Chunk=%d not a power of two", f.Name(), mu, n, c)
				}
				if c > n/2 && n >= 2 && c != 1 {
					t.Errorf("%s mu=%d n=%d: Chunk=%d > n/2", f.Name(), mu, n, c)
				}
				if float64(c) > f.Cost(mu*n)/float64(mu) && c != 1 {
					t.Errorf("%s mu=%d n=%d: Chunk=%d > f(mu n)/mu = %g",
						f.Name(), mu, n, c, f.Cost(mu*n)/float64(mu))
				}
			}
		}
	}
}

func TestChunkBaseCase(t *testing.T) {
	if got := Chunk(Log{}, 1, 1); got != 1 {
		t.Errorf("Chunk(n=1) = %d, want 1", got)
	}
	if got := Chunk(Log{}, 1, 0); got != 1 {
		t.Errorf("Chunk(n=0) = %d, want 1", got)
	}
}

func TestCStarShapes(t *testing.T) {
	// c*(n) = O(log log µn) for f = x^α: should be tiny even for huge n.
	if got := CStar(Poly{Alpha: 0.5}, 1, 1<<30); got > 12 {
		t.Errorf("CStar(x^0.5, 2^30) = %d, want O(log log n) ~ <=12", got)
	}
	// c*(n) for f = log x should be even smaller (log*-like).
	if got := CStar(Log{}, 1, 1<<30); got > 10 {
		t.Errorf("CStar(log, 2^30) = %d, want log*-ish small", got)
	}
	if got := CStar(Log{}, 1, 1); got != 1 {
		t.Errorf("CStar(n=1) = %d, want 1", got)
	}
}

func TestCStarGrowsSlowlyProperty(t *testing.T) {
	f := Poly{Alpha: 0.5}
	prop := func(raw uint32) bool {
		n := int64(raw%(1<<20)) + 2
		a, b := CStar(f, 1, n), CStar(f, 1, 4*n)
		return b >= 1 && b <= a+3
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestLogStar checks that FStar under f = log x is log* n, the Fact 2
// depth for that access function.
func TestLogStar(t *testing.T) {
	logStar := func(n int64) int { return FStar(Log{}, n) }
	if got := logStar(1 << 16); got < 3 || got > 5 {
		t.Errorf("log*(2^16) = %d, want 3..5", got)
	}
	a, b := logStar(1<<10), logStar(1<<60)
	if b < a {
		t.Errorf("log* not monotone: log*(2^10)=%d > log*(2^60)=%d", a, b)
	}
	if b > 6 {
		t.Errorf("log*(2^60) = %d, want <= 6 (log* grows extremely slowly)", b)
	}
}
