package dbsp_test

import (
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/progtest"
)

// TestRunAllocsIndependentOfV pins that the engine allocates per run,
// per shard and per superstep, never per processor or per message: Run
// of the same rotate supersteps at v = 256 and at v = 1024 (both one
// default shard, so no message is copied into a bucket) must allocate
// exactly as many objects. A Ctx or store allocated per processor would
// add 2·768·10 objects.
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
	if big != small {
		t.Errorf("Run allocates %v objects at v = 1024 but %v at v = 256: allocation grows with v", big, small)
	}
}

// TestRunShardedBytesAtMostArena pins the bytes one run allocates: the
// context arenas, one slice header per processor, and at most 64 KiB
// besides — so no per-message record is copied for traffic that stays
// inside its shard. Rotate's coarsest step crosses a shard boundary
// with one message per boundary at two shards; every other message
// stays in its shard.
func TestRunShardedBytesAtMostArena(t *testing.T) {
	const v = 1 << 14
	prog := progtest.Rotate(v, 4, 3, 2, 1, 0)
	g := cost.Poly{Alpha: 0.5}
	arena := uint64(v * prog.Mu() * 8)
	headers := uint64(v * 24)
	for _, shards := range []int{1, 2} {
		if _, err := dbsp.RunSharded(prog, g, shards); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := dbsp.RunSharded(prog, g, shards); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if limit := arena + headers + 64<<10; got > limit {
			t.Errorf("shards=%d: RunSharded allocated %d bytes, want at most %d (arena %d + headers %d + 64 KiB)",
				shards, got, limit, arena, headers)
		}
	}
}
