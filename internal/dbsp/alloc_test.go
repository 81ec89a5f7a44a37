package dbsp_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
)

// TestRunAllocsIndependentOfV pins that the engine allocates per run,
// per shard and per superstep, never per processor: Run of the same
// rotate supersteps at v = 256 and at v = 1024 (both one default
// shard) may differ only by the amortised growth of the exchange
// buckets, a few appends per doubling of the traffic. A Ctx or store
// allocated per processor would add 2·768·10 objects.
func TestRunAllocsIndependentOfV(t *testing.T) {
	labels := progtest.Descending(256)
	allocs := func(v int) float64 {
		prog := progtest.Rotate(v, labels...)
		return testing.AllocsPerRun(3, func() {
			if _, err := dbsp.Run(prog, cost.Poly{Alpha: 0.5}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(256), allocs(1024)
	if big-small > 8 {
		t.Errorf("Run allocates %v objects at v = 1024 but %v at v = 256: allocation grows with v", big, small)
	}
}
