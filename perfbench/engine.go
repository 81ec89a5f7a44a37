package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/algos"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/obs"
	"repro/internal/progtest"
	"repro/internal/workload"
)

// The engine workload: one caller in a batch; the engines fan out to
// GOMAXPROCS themselves. Each pass runs a small-v block through
// dbsp.Run, which measures per-superstep overhead (worker fan-out, the
// barrier, sequential delivery) at the v most tests use, then a big-v
// block through dbsp.RunSharded, which is memory-bound (about 100 MB of
// context arenas at 2^20). A change to the step loop and a change to
// arena layout therefore show on different figures. No simulator runs.

var (
	smallV = []int{16, 64, 256, 1024}
	bigV   = []int{1 << 17, 1 << 20}
)

// bigLabels are the rotate labels of the big-v programs: the five
// coarsest clusters, coarsening to the whole machine.
var bigLabels = []int{4, 3, 2, 1, 0}

// smallReps is how often each small-v item runs per pass: a small-v
// call takes microseconds to milliseconds, so repeating it gives its
// median as many samples as a big-v item's costs in time.
const smallReps = 10

// engineG is the bandwidth function of every engine run.
var engineG cost.Func = cost.Poly{Alpha: 0.5}

type engItem struct {
	prog     *dbsp.Program
	big      bool
	work     int64
	ref      uint64 // digest of the reference final contexts
	costBits uint64
	messages int64 // -1 where no trace was taken
}

func (it *engItem) check(res *dbsp.Result, err error) (bool, string) {
	switch {
	case err != nil:
		return false, fmt.Sprintf("%s: %v", it.prog.Name, err)
	case math.Float64bits(res.Cost) != it.costBits:
		return false, fmt.Sprintf("%s: cost %v differs from set-up's %v", it.prog.Name, res.Cost, math.Float64frombits(it.costBits))
	case digest(res.Contexts) != it.ref:
		return false, fmt.Sprintf("%s: final contexts differ from set-up's", it.prog.Name)
	}
	return true, ""
}

// buildEngine builds the programs and their references: dbsp.Run for
// every small v and for 2^17 (the reference RunSharded must match),
// and RunSharded itself at 2^20, where only its own earlier run can
// serve as the reference.
func buildEngine(seed uint64) ([]*engItem, error) {
	g := workload.New(seed)
	sub := func() uint64 { return uint64(g.Int63()) }
	var items []*engItem
	for _, v := range smallV {
		for _, prog := range []*dbsp.Program{
			progtest.Rotate(v, progtest.Descending(v)...),
			progtest.RandomProgram(progtest.RandomSpec{V: v, Steps: 12, MaxMsgs: 2, Seed: sub()}),
			algos.PrefixSums(v, workload.KeyFunc(sub(), v, 1<<20)),
		} {
			items = append(items, &engItem{prog: prog})
		}
	}
	for _, v := range bigV {
		items = append(items, &engItem{prog: progtest.Rotate(v, bigLabels...), big: true})
	}
	for _, it := range items {
		it.work = psteps(it.prog)
		var res *dbsp.Result
		var err error
		if it.prog.V < bigV[1] {
			var tr *dbsp.Trace
			res, tr, err = dbsp.RunTraced(it.prog, engineG)
			if err == nil {
				it.messages = tr.Messages()
			}
		} else {
			res, err = dbsp.RunSharded(it.prog, engineG, 0)
			it.messages = -1
		}
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", it.prog.Name, err)
		}
		it.ref, it.costBits = digest(res.Contexts), math.Float64bits(res.Cost)
	}
	return items, nil
}

func runEngine(cfg config, out *outcome) error {
	items, err := timeSetup(cfg, out, func() ([]*engItem, error) { return buildEngine(cfg.seed) })
	if err != nil {
		return err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	plain := make([]series, len(items))
	traced := make([]series, len(items))
	// Traced passes also time the other engine at each matched v and
	// the context allocation at 2^20.
	sharded := make([]series, len(items)) // RunSharded at small v
	native := make([]series, len(items))  // Run at 2^17
	var newCtx series
	var steps, messages int64 = -1, -1
	var allocBytes uint64
	var gcs, tracedCalls int

	prof, err := startProfile(cfg)
	if err != nil {
		return err
	}
	cache0 := cost.CompileCache().Stats()
	start := time.Now()
	deadline := cfg.deadline(start)
	expired := func(pass int) bool { return pass >= minPasses(cfg) && !time.Now().Before(deadline) }
	for pass := 0; !expired(pass); pass++ {
		tracing := cfg.trace && pass%2 == 0
		var pt *tracer
		if tracing {
			pt = tr
		}
		passSpan := pt.begin("bench.pass", 0, 0)
		timeCall := func(i int, name string, into []series, call func() (*dbsp.Result, error)) {
			it := items[i]
			var md *memDelta
			if tracing {
				md = startMem()
			}
			id := pt.begin(name, passSpan, 0)
			t0 := time.Now()
			res, err := call()
			d := time.Since(t0)
			pt.end(id)
			if tracing {
				a, g := md.stop()
				allocBytes += a
				gcs += int(g)
				tracedCalls++
			}
			into[i].add(d)
			chk := pt.begin("bench.check", passSpan, 0)
			ok, msg := it.check(res, err)
			out.check(ok, "%s via %s", msg, name)
			pt.end(chk)
		}
		times := plain
		if tracing {
			times = traced
		}

		for rep := 0; rep < smallReps && !expired(pass); rep++ {
			for i, it := range items {
				if it.big || expired(pass) {
					continue
				}
				timeCall(i, "dbsp.Run", times, func() (*dbsp.Result, error) { return dbsp.Run(it.prog, engineG) })
			}
		}
		if tracing {
			reg := obs.NewRegistry()
			o := obs.New(reg, nil)
			for i, it := range items {
				if it.big {
					continue
				}
				timeCall(i, "dbsp.RunSharded", sharded, func() (*dbsp.Result, error) { return dbsp.RunSharded(it.prog, engineG, 0) })
				id := pt.begin("dbsp.RunObserved", passSpan, 0)
				res, _, err := dbsp.RunObserved(it.prog, engineG, o)
				pt.end(id)
				ok, msg := it.check(res, err)
				out.check(ok, "%s via dbsp.RunObserved", msg)
			}
			big := items[len(items)-2]
			id := pt.begin("dbsp.RunShardedObserved", passSpan, 0)
			res, _, err := dbsp.RunShardedObserved(big.prog, engineG, 0, o)
			pt.end(id)
			ok, msg := big.check(res, err)
			out.check(ok, "%s via dbsp.RunShardedObserved", msg)
			vals := registryValues(reg)
			s, m := int64(vals["dbsp.supersteps"]), int64(vals["dbsp.messages"])
			if steps < 0 {
				steps, messages = s, m
			} else if s != steps || m != messages {
				out.problem("dbsp.supersteps/messages %d/%d differ from the first traced pass's %d/%d", s, m, steps, messages)
			}
		}
		for i, it := range items {
			if !it.big || expired(pass) {
				continue
			}
			timeCall(i, "dbsp.RunSharded", times, func() (*dbsp.Result, error) { return dbsp.RunSharded(it.prog, engineG, 0) })
			if !tracing {
				continue
			}
			if it.prog.V == bigV[0] {
				timeCall(i, "dbsp.Run", native, func() (*dbsp.Result, error) { return dbsp.Run(it.prog, engineG) })
			} else {
				id := pt.begin("dbsp.NewContextsSharded", passSpan, 0)
				t0 := time.Now()
				ctxs := dbsp.NewContextsSharded(it.prog, 0)
				newCtx.add(time.Since(t0))
				pt.end(id)
				if len(ctxs) != it.prog.V {
					out.problem("NewContextsSharded made %d contexts, want %d", len(ctxs), it.prog.V)
				}
			}
		}
		pt.end(passSpan)
	}
	out.profile = prof.stop()
	cache1 := cost.CompileCache().Stats()

	work := make([]int64, len(items))
	for i, it := range items {
		work[i] = it.work
	}
	only := func(times []series, big bool) []series {
		return pick(items, times, func(it *engItem) bool { return it.big == big })
	}
	rate, _ := throughput(work, plain)
	smallRate, lightMS := throughput(work, only(plain, false))
	bigRate, heavyMS := throughput(work, only(plain, true))
	out.e2e["work_per_s"], out.e2e["light_ms"], out.e2e["heavy_ms"] = rate, lightMS, heavyMS
	out.rows = append(out.rows,
		row{Name: "small_v.psteps_per_s", Value: smallRate, Unit: "1/s", N: samples(only(plain, false))},
		row{Name: "big_v.psteps_per_s", Value: bigRate, Unit: "1/s", N: samples(only(plain, true))},
		row{Name: "work_per_s", Value: rate, Unit: "1/s", N: samples(plain)},
		row{Name: "light_ms", Value: lightMS, Unit: "ms", N: samples(only(plain, false))},
		row{Name: "heavy_ms", Value: heavyMS, Unit: "ms", N: samples(only(plain, true))},
	)
	engineLedger(items, out)

	if cfg.trace {
		out.spans = tr.snapshot()
		traceRate, _ := throughput(work, traced)
		out.setLayer("trace.overhead_pct", 100*(rate/traceRate-1), samples(traced))
		r, _ := throughput(work, only(traced, false))
		out.setLayer("small_v.psteps_per_s", r, samples(only(traced, false)))
		r, _ = throughput(work, only(traced, true))
		out.setLayer("big_v.psteps_per_s", r, samples(only(traced, true)))
		// setAt reports the sum of the item medians at one v: the time
		// of one call per program of that size.
		setAt := func(name string, times []series, v int) {
			var sum float64
			n := 0
			for i, it := range items {
				if it.prog.V == v && len(times[i]) > 0 {
					sum += median(times[i])
					n += len(times[i])
				}
			}
			out.setLayer(runCallMS(name, v), sum, n)
		}
		for _, v := range smallV {
			setAt("dbsp.Run", traced, v)
			setAt("dbsp.RunSharded", sharded, v)
		}
		setAt("dbsp.Run", native, bigV[0])
		for _, v := range bigV {
			setAt("dbsp.RunSharded", traced, v)
		}
		out.setLayer(runCallMS("dbsp.NewContextsSharded", bigV[1]), median(newCtx), len(newCtx))
		out.setLayer("dbsp.supersteps", float64(steps), 0)
		out.setLayer("dbsp.messages", float64(messages), 0)
		out.setLayer("alloc_kb_per_call", float64(allocBytes)/1024/float64(tracedCalls), tracedCalls)
		out.setLayer("gc_cycles_per_call", float64(gcs)/float64(tracedCalls), tracedCalls)
		setCacheLayer(out, cache0, cache1)
		out.rows = append(out.rows, row{Name: "traced.work_per_s", Value: traceRate, Unit: "1/s", N: samples(traced)})
	}
	return nil
}

// engineLedger prints each block's exact counts from set-up.
func engineLedger(items []*engItem, out *outcome) {
	for _, big := range []bool{false, true} {
		h := fnv.New64a()
		var steps, msgs int64
		for _, it := range items {
			if it.big != big {
				continue
			}
			putWords(h, it.costBits, it.ref)
			steps += int64(len(it.prog.Steps))
			if it.messages > 0 {
				msgs += it.messages
			}
		}
		p := "engine.small_v."
		if big {
			p = "engine.big_v."
		}
		out.ledger[p+"cost_and_context_bits"] = fmt.Sprintf("%016x", h.Sum64())
		out.ledger[p+"supersteps"] = fmt.Sprint(steps)
		out.ledger[p+"messages"] = fmt.Sprint(msgs)
	}
	out.ledger["engine.big_v.messages"] += " (v = 2^17 only)"
}
