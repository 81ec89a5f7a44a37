package dbsp

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
)

// shardProg builds a v-processor program whose traffic crosses every
// shard boundary: each superstep a processor folds its inbox into
// data[0] and sends the sum a varying stride ahead within its cluster,
// so messages are a mix of self-sends, intra-shard hops and cross-shard
// hops at every tested shard count.
func shardProg(v, steps int) *Program {
	logv := Log2(v)
	prog := &Program{
		Name:   "shardprog",
		V:      v,
		Layout: Layout{Data: 2, MaxMsgs: 3},
		Init:   func(p int, data []Word) { data[0] = Word(3*p + 1) },
	}
	for s := 0; s < steps; s++ {
		label := (s * 2) % (logv + 1)
		stride := 1 << (s % 4) // includes stride ≡ 0 mod cluster: self-sends
		prog.Steps = append(prog.Steps, Superstep{Label: label, Run: func(c *Ctx) {
			acc := c.Load(0)
			for k := 0; k < c.NumRecv(); k++ {
				src, payload := c.Recv(k)
				acc += payload + Word(src)
			}
			c.Store(0, acc)
			cs := ClusterSize(c.V(), c.Label())
			lo := (c.ID() / cs) * cs
			c.Send(lo+(c.ID()-lo+stride)%cs, acc)
			c.Work(int64(c.ID() % 5))
		}})
	}
	prog.Steps = append(prog.Steps, Superstep{Label: 0, Run: func(c *Ctx) {
		acc := c.Load(0)
		for k := 0; k < c.NumRecv(); k++ {
			_, payload := c.Recv(k)
			acc += payload
		}
		c.Store(1, acc)
	}})
	return prog
}

// requireIdentical asserts two results agree bit-for-bit: contexts word
// by word, per-step integer costs, and every charged float64 compared
// by Float64bits, not tolerance.
func requireIdentical(t *testing.T, ref, got *Result) {
	t.Helper()
	if len(ref.Steps) != len(got.Steps) {
		t.Fatalf("step counts differ: reference %d, got %d", len(ref.Steps), len(got.Steps))
	}
	for i := range ref.Steps {
		r, g := ref.Steps[i], got.Steps[i]
		if r.Label != g.Label || r.Tau != g.Tau || r.H != g.H {
			t.Fatalf("step %d: reference {label %d τ %d h %d}, got {label %d τ %d h %d}",
				i, r.Label, r.Tau, r.H, g.Label, g.Tau, g.H)
		}
		if math.Float64bits(r.Cost) != math.Float64bits(g.Cost) {
			t.Fatalf("step %d cost bits differ: reference %x, got %x",
				i, math.Float64bits(r.Cost), math.Float64bits(g.Cost))
		}
	}
	if math.Float64bits(ref.Cost) != math.Float64bits(got.Cost) {
		t.Fatalf("total cost bits differ: reference %x, got %x",
			math.Float64bits(ref.Cost), math.Float64bits(got.Cost))
	}
	if ref.MaxTau != got.MaxTau {
		t.Fatalf("MaxTau differs: reference %d, got %d", ref.MaxTau, got.MaxTau)
	}
	if len(ref.Contexts) != len(got.Contexts) {
		t.Fatalf("context counts differ: %d vs %d", len(ref.Contexts), len(got.Contexts))
	}
	for p := range ref.Contexts {
		for i := range ref.Contexts[p] {
			if ref.Contexts[p][i] != got.Contexts[p][i] {
				t.Fatalf("proc %d word %d: reference %d, got %d",
					p, i, ref.Contexts[p][i], got.Contexts[p][i])
			}
		}
	}
}

// TestRunShardedMatchesOneShard sweeps shard counts — a divisor of v, a
// non-divisor (uneven last shard), v itself, shards > v, and the
// default through both RunSharded(·, 0) and Run — and requires
// bit-identical agreement with the one-shard run on a program whose
// sends cross shard boundaries.
func TestRunShardedMatchesOneShard(t *testing.T) {
	for _, v := range []int{1, 2, 8, 64, 128} {
		prog := shardProg(v, 9)
		ref, err := RunSharded(prog, cost.Poly{Alpha: 0.5}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 7, v, v + 13, 0} {
			got, err := RunSharded(prog, cost.Poly{Alpha: 0.5}, shards)
			if err != nil {
				t.Fatalf("v=%d shards=%d: %v", v, shards, err)
			}
			requireIdentical(t, ref, got)
		}
		got, err := Run(prog, cost.Poly{Alpha: 0.5})
		if err != nil {
			t.Fatalf("v=%d Run: %v", v, err)
		}
		requireIdentical(t, ref, got)
	}
}

// TestShardCount pins the resolution rules: explicit counts clamp to
// [1, v]; <= 0 derives the default from v — one inline shard below
// 2·minShardProcs processors, above it one shard per minShardProcs
// processors up to GOMAXPROCS — which keeps 2^17- and 2^20-processor
// machines at two shards or more on a host with two CPUs or more.
func TestShardCount(t *testing.T) {
	if got := ShardCount(4, 100); got != 4 {
		t.Errorf("ShardCount(4, 100) = %d, want 4", got)
	}
	if got := ShardCount(200, 100); got != 100 {
		t.Errorf("ShardCount(200, 100) = %d, want clamp to 100", got)
	}
	if got := ShardCount(0, 100); got < 1 || got > 100 {
		t.Errorf("ShardCount(0, 100) = %d, want in [1, 100]", got)
	}
	if got := ShardCount(-3, 1); got != 1 {
		t.Errorf("ShardCount(-3, 1) = %d, want 1", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8, 64} {
		runtime.GOMAXPROCS(procs)
		for _, v := range []int{1, 16, 1024, 2*minShardProcs - 1} {
			if got := ShardCount(0, v); got != 1 {
				t.Errorf("GOMAXPROCS=%d: ShardCount(0, %d) = %d, want 1 below 2·minShardProcs", procs, v, got)
			}
		}
		for _, v := range []int{2 * minShardProcs, 1 << 17, 1 << 20} {
			want := min(procs, v/minShardProcs)
			if got := ShardCount(0, v); got != want {
				t.Errorf("GOMAXPROCS=%d: ShardCount(0, %d) = %d, want %d", procs, v, got, want)
			}
			if got := ShardCount(0, v); got > procs || v/got < minShardProcs {
				t.Errorf("GOMAXPROCS=%d: ShardCount(0, %d) = %d exceeds GOMAXPROCS or starves a shard", procs, v, got)
			}
		}
		if got, want := ShardCount(0, 1<<17), min(procs, 2); got < want {
			t.Errorf("GOMAXPROCS=%d: ShardCount(0, 2^17) = %d, want at least %d", procs, got, want)
		}
	}
}

// TestNewContextsShardedMatchesFlat: the per-shard arenas must hold the
// word-for-word initial state of the flat allocator, including an
// uneven final shard.
func TestNewContextsShardedMatchesFlat(t *testing.T) {
	prog := shardProg(64, 1)
	flat := NewContexts(prog)
	for _, shards := range []int{1, 5, 64, 200} {
		got := NewContextsSharded(prog, shards)
		if len(got) != len(flat) {
			t.Fatalf("shards=%d: %d contexts, want %d", shards, len(got), len(flat))
		}
		for p := range flat {
			if len(got[p]) != len(flat[p]) {
				t.Fatalf("shards=%d proc %d: µ=%d, want %d", shards, p, len(got[p]), len(flat[p]))
			}
			for i := range flat[p] {
				if got[p][i] != flat[p][i] {
					t.Fatalf("shards=%d proc %d word %d: %d, want %d", shards, p, i, got[p][i], flat[p][i])
				}
			}
		}
	}
}

// TestShardedSelfSends: a superstep where every processor sends only to
// itself never crosses a shard boundary; the exchange must still clear
// outboxes, fill inboxes and report h = 1.
func TestShardedSelfSends(t *testing.T) {
	prog := &Program{
		Name:   "selfsend",
		V:      16,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Init:   func(p int, data []Word) { data[0] = Word(p) },
		Steps: []Superstep{
			{Label: Log2(16), Run: func(c *Ctx) { c.Send(c.ID(), c.Load(0)*2) }},
			{Label: 0, Run: func(c *Ctx) {
				if c.NumRecv() != 1 {
					panic("self-send not delivered")
				}
				src, payload := c.Recv(0)
				if src != c.ID() {
					panic("self-send delivered with wrong source")
				}
				c.Store(0, payload)
			}},
		},
	}
	for _, shards := range []int{1, 3, 16} {
		res, err := RunSharded(prog, cost.Log{}, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Steps[0].H != 1 {
			t.Errorf("shards=%d: h = %d for self-send superstep, want 1", shards, res.Steps[0].H)
		}
		for p, ctx := range res.Contexts {
			if ctx[0] != Word(2*p) {
				t.Errorf("shards=%d proc %d: data[0] = %d, want %d", shards, p, ctx[0], 2*p)
			}
		}
	}
}

// TestShardedZeroMessageSuperstep: supersteps that send nothing must
// clear stale inboxes and charge h = 0, exactly like Deliver.
func TestShardedZeroMessageSuperstep(t *testing.T) {
	prog := &Program{
		Name:   "quiet",
		V:      8,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) { c.Send((c.ID()+1)%c.V(), 7) }},
			{Label: 0, Run: func(c *Ctx) { c.Work(1) }}, // sends nothing
			{Label: 0, Run: func(c *Ctx) {
				if c.NumRecv() != 0 {
					panic("stale inbox survived a zero-message superstep")
				}
			}},
		},
	}
	for _, shards := range []int{1, 3, 8} {
		res, err := RunSharded(prog, cost.Log{}, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Steps[1].H != 0 || res.Steps[2].H != 0 {
			t.Errorf("shards=%d: h = %d,%d for zero-message supersteps, want 0,0",
				shards, res.Steps[1].H, res.Steps[2].H)
		}
	}
}

// TestShardedCrossShardOverflow overflows an inbox from senders in a
// different shard and checks the error names the overflowing processor
// — and is byte-identical to the one-shard run's error, whichever
// shard count partitions senders from the victim.
func TestShardedCrossShardOverflow(t *testing.T) {
	v := 16
	prog := &Program{
		Name:   "overflow",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				// Processors 12..14 all target processor 3: the third
				// delivery overflows MaxMsgs=2.
				if c.ID() >= 12 && c.ID() <= 14 {
					c.Send(3, Word(c.ID()))
				}
			}},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
	_, refErr := RunSharded(prog, cost.Log{}, 1)
	if refErr == nil {
		t.Fatal("one-shard run accepted an overflowing program")
	}
	if !strings.Contains(refErr.Error(), "inbox overflow at processor 3") {
		t.Fatalf("one-shard overflow error %q does not name processor 3", refErr)
	}
	for _, shards := range []int{2, 4, 16, 0} {
		_, err := RunSharded(prog, cost.Log{}, shards)
		if err == nil {
			t.Fatalf("shards=%d: overflow not rejected", shards)
		}
		if err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error %q, want the one-shard run's %q", shards, err, refErr)
		}
	}
}

// TestShardedOverflowFirstInScanOrder sets up simultaneous overflows at
// two processors in different shards; the reported processor must be
// the one the sequential scan of the one-shard run (ascending sender,
// send order within sender) hits first.
func TestShardedOverflowFirstInScanOrder(t *testing.T) {
	v := 8
	prog := &Program{
		Name:   "doubleoverflow",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 2},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				// Proc 0 fills inbox 6, proc 3 fills inbox 2; procs 1 and
				// 4 then overflow them. Scan order hits proc 1's
				// message (→ 6) before proc 4's (→ 2), so processor 6 is
				// named even though 2 < 6.
				switch c.ID() {
				case 0:
					c.Send(6, 1)
					c.Send(6, 1)
				case 1:
					c.Send(6, 2)
				case 3:
					c.Send(2, 1)
					c.Send(2, 1)
				case 4:
					c.Send(2, 2)
				}
			}},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
	_, refErr := RunSharded(prog, cost.Log{}, 1)
	if refErr == nil || !strings.Contains(refErr.Error(), "processor 6") {
		t.Fatalf("one-shard error %v, want overflow at processor 6", refErr)
	}
	for _, shards := range []int{2, 4, 8, 0} {
		_, err := RunSharded(prog, cost.Log{}, shards)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error %v, want the one-shard run's %q", shards, err, refErr)
		}
	}
}

// TestShardedHandlerErrorLowestProc: when handlers on several shards
// panic, the engine must report the lowest processor id, like the
// one-shard run's ascending scan.
func TestShardedHandlerErrorLowestProc(t *testing.T) {
	prog := &Program{
		Name:   "panicky",
		V:      32,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				if c.ID()%5 == 2 { // procs 2, 7, 12, ... panic
					panic("boom")
				}
			}},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
	_, refErr := RunSharded(prog, cost.Log{}, 1)
	if refErr == nil || !strings.Contains(refErr.Error(), "processor 2:") {
		t.Fatalf("one-shard error %v, want processor 2", refErr)
	}
	for _, shards := range []int{4, 32, 0} {
		_, err := RunSharded(prog, cost.Log{}, shards)
		if err == nil || err.Error() != refErr.Error() {
			t.Errorf("shards=%d: error %v, want the one-shard run's %q", shards, err, refErr)
		}
	}
}

// TestRunShardedInspected: every shard count must expose the same
// trace/StepEvent surface as the one-shard run — identical message
// traces and identical registry accounting.
func TestRunShardedInspected(t *testing.T) {
	prog := shardProg(32, 6)
	nRes, nTr, err := RunShardedObserved(prog, cost.Log{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	o := obs.New(reg, nil)
	var events int
	sRes, sTr, err := RunShardedInspected(prog, cost.Log{}, 3, o, func(e StepEvent) {
		events++
		if len(e.Sent) != len(e.Received) {
			t.Errorf("step %d: %d sent, %d received", e.Step, len(e.Sent), len(e.Received))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, nRes, sRes)
	if events != len(sRes.Steps) {
		t.Errorf("inspector saw %d events, want %d", events, len(sRes.Steps))
	}
	if len(nTr.Steps) != len(sTr.Steps) {
		t.Fatalf("trace step counts differ: %d vs %d", len(nTr.Steps), len(sTr.Steps))
	}
	for i := range nTr.Steps {
		n, s := nTr.Steps[i], sTr.Steps[i]
		if len(n.Messages) != len(s.Messages) {
			t.Fatalf("trace step %d: %d vs %d messages", i, len(n.Messages), len(s.Messages))
		}
		for k := range n.Messages {
			if n.Messages[k] != s.Messages[k] {
				t.Fatalf("trace step %d message %d: one shard %+v, three %+v", i, k, n.Messages[k], s.Messages[k])
			}
		}
	}
	if got, want := reg.FloatCounter("dbsp.cost.total").Value(), sRes.Cost; got != want {
		t.Errorf("dbsp.cost.total = %v, want exactly %v", got, want)
	}
}

// TestShardedConcurrencyStress hammers the engine at explicit shard
// counts — at v = 512 the default is one inline shard, which races
// nothing — while a scraper goroutine concurrently snapshots the
// metrics registry: the obs-under-load pattern `go test -race` must
// clear. Every handler must run exactly once per processor per
// superstep, and both runs must agree bit for bit.
func TestShardedConcurrencyStress(t *testing.T) {
	const v, steps = 512, 25 // shardProg(v, 24) closes with a 25th superstep
	prog := shardProg(v, steps-1)
	var handlerRuns atomic.Int64
	for i := range prog.Steps {
		run := prog.Steps[i].Run
		prog.Steps[i].Run = func(c *Ctx) {
			handlerRuns.Add(1)
			run(c)
		}
	}
	reg := obs.NewRegistry()
	o := obs.New(reg, obs.NewRingSink(64))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				reg.Snapshot()
			}
		}
	}()

	res1, _, err := RunShardedObserved(prog, cost.Poly{Alpha: 0.5}, 7, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := handlerRuns.Load(); got != v*steps {
		t.Errorf("handler runs at 7 shards = %d, want %d", got, v*steps)
	}
	res2, err := RunSharded(prog, cost.Poly{Alpha: 0.5}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if got := handlerRuns.Load(); got != 2*v*steps {
		t.Errorf("handler runs after 13 shards = %d, want %d", got, 2*v*steps)
	}
	close(done)
	wg.Wait()
	requireIdentical(t, res1, res2)
	if got, want := reg.FloatCounter("dbsp.cost.total").Value(), res1.Cost; got != want {
		t.Errorf("dbsp.cost.total = %v, want exactly %v", got, want)
	}
}
