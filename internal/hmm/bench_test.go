package hmm

import (
	"testing"

	"repro/internal/cost"
)

// The machine benchmarks time the charge paths: each leg builds its
// machine once, outside the timed loop, so ns/op measures the charges
// and not allocation or GC pacing.

func benchFuncs() []cost.Func {
	return []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}, cost.Const{C: 1}}
}

func BenchmarkTouch(b *testing.B) {
	const n = 1 << 16
	for _, f := range benchFuncs() {
		b.Run(f.Name(), func(b *testing.B) {
			m := New(f, n)
			for i := 0; i < b.N; i++ {
				m.Touch(n)
			}
		})
	}
}

func BenchmarkMoveRange(b *testing.B) {
	const n = 1 << 15
	for _, f := range benchFuncs() {
		b.Run(f.Name(), func(b *testing.B) {
			m := New(f, 2*n)
			for i := 0; i < b.N; i++ {
				m.MoveRange(0, n, n)
			}
		})
	}
}

func BenchmarkReadPerWord(b *testing.B) {
	const n = 1 << 15
	for _, f := range benchFuncs() {
		b.Run(f.Name(), func(b *testing.B) {
			m := New(f, n)
			for i := 0; i < b.N; i++ {
				for x := int64(0); x < n; x++ {
					m.Read(x)
				}
			}
		})
	}
}
