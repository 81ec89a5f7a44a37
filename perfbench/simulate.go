package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/algos"
	"repro/internal/core/btsim"
	"repro/internal/core/hmmsim"
	"repro/internal/core/selfsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/obs"
	"repro/internal/progtest"
	"repro/internal/workload"
)

// The simulate workload: one caller, one goroutine, round-robin passes
// over a fixed mix. The case studies at v ∈ {256, 1024} keep the host
// working set inside a 2 MiB L2; the rotate program at v = 2^14 pushes
// it past (about 0.8 M words of BT memory plus their cost-table
// entries). dbsp is reached only through NewContexts inside the
// simulators and set-up's reference runs; sweep and serve never run.

// simulators are the three entry points, in call order per item.
var simulators = []string{"hmmsim", "btsim", "selfsim"}

// simFuncs are the access functions every item runs under.
var simFuncs = []cost.Func{cost.Poly{Alpha: 0.5}, cost.Log{}}

// selfDivisor sets the self-simulation host size v′ = v/16.
const selfDivisor = 16

// heavySimV is the machine size of the past-L2 item.
const heavySimV = 1 << 14

// psteps is an item's work: v × the supersteps of the program as built,
// before any smoothing the simulators apply.
func psteps(prog *dbsp.Program) int64 { return int64(prog.V) * int64(len(prog.Steps)) }

// simulatePrograms builds the mix from the seed: the seed draws the
// matrices, keys and random-program structure.
func simulatePrograms(seed uint64) []*dbsp.Program {
	g := workload.New(seed)
	sub := func() uint64 { return uint64(g.Int63()) }
	var progs []*dbsp.Program
	for _, v := range []int{256, 1024} {
		side := 1 << (dbsp.Log2(v) / 2)
		progs = append(progs,
			algos.MatMul(v, workload.Matrix(sub(), side, 4), workload.Matrix(sub(), side, 4)),
			algos.DFTButterfly(v, workload.KeyFunc(sub(), v, 1<<20)),
			algos.DFTRecursive(v, workload.KeyFunc(sub(), v, 1<<20)),
			algos.Sort(v, workload.KeyFunc(sub(), v, int64(4*v))),
			progtest.RandomProgram(progtest.RandomSpec{V: v, Steps: 12, MaxMsgs: 2, Seed: sub()}),
		)
	}
	return append(progs, progtest.Rotate(heavySimV, progtest.Descending(heavySimV)...))
}

// simCounts are one simulator call's exact model counts, read from its
// Result: identical on every call of the same item.
type simCounts struct {
	CostBits                uint64
	Accesses, Rounds, Swaps int64
	Copies, Words           int64 // BT block transfers
	GlobalSteps, LocalRuns  int64 // self-simulation partition
}

type simItem struct {
	prog   *dbsp.Program
	f      cost.Func
	sim    string
	heavy  bool
	work   int64
	ref    uint64    // digest of dbsp.Run's final contexts
	counts simCounts // from set-up's pass
}

func (it *simItem) String() string {
	return fmt.Sprintf("%s/%s/%s", it.sim, it.prog.Name, it.f.Name())
}

// simulateOnce calls the item's simulator, handing it o as Options.Obs.
func simulateOnce(it *simItem, o *obs.Observer) ([][]dbsp.Word, simCounts, error) {
	switch it.sim {
	case "hmmsim":
		r, err := hmmsim.Simulate(it.prog, it.f, &hmmsim.Options{Obs: o})
		if err != nil {
			return nil, simCounts{}, err
		}
		return r.Contexts, simCounts{CostBits: math.Float64bits(r.HostCost), Accesses: r.Stats.Accesses(),
			Rounds: r.Rounds, Swaps: r.Swaps}, nil
	case "btsim":
		r, err := btsim.Simulate(it.prog, it.f, &btsim.Options{Obs: o})
		if err != nil {
			return nil, simCounts{}, err
		}
		return r.Contexts, simCounts{CostBits: math.Float64bits(r.HostCost), Accesses: r.Stats.Accesses(),
			Rounds: r.Rounds, Swaps: r.Swaps, Copies: r.Blocks.Copies, Words: r.Blocks.Words}, nil
	default:
		r, err := selfsim.Simulate(it.prog, it.f, it.prog.V/selfDivisor, &selfsim.Options{Obs: o})
		if err != nil {
			return nil, simCounts{}, err
		}
		return r.Contexts, simCounts{CostBits: math.Float64bits(r.HostCost),
			GlobalSteps: int64(r.GlobalSteps), LocalRuns: int64(r.LocalRuns)}, nil
	}
}

// simSetup is the state set-up hands to the timed phase.
type simSetup struct {
	items    []*simItem
	messages int64 // messages routed by the reference runs
	lookups  int64 // cost-table cache lookups in one pass
}

// buildSimulate builds the programs, their reference runs and the
// items, then runs one untimed pass that fills the cost-table cache
// and fixes every item's reference counts.
func buildSimulate(seed uint64) (*simSetup, error) {
	st := &simSetup{}
	for _, prog := range simulatePrograms(seed) {
		res, tr, err := dbsp.RunTraced(prog, cost.Poly{Alpha: 0.5})
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", prog.Name, err)
		}
		st.messages += tr.Messages()
		ref := digest(res.Contexts)
		for _, f := range simFuncs {
			for _, sim := range simulators {
				st.items = append(st.items, &simItem{prog: prog, f: f, sim: sim,
					heavy: prog.V >= heavySimV, work: psteps(prog), ref: ref})
			}
		}
	}
	before := cost.CompileCache().Stats()
	for _, it := range st.items {
		ctxs, counts, err := simulateOnce(it, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it, err)
		}
		if digest(ctxs) != it.ref {
			return nil, fmt.Errorf("%s: final contexts differ from dbsp.Run", it)
		}
		it.counts = counts
	}
	after := cost.CompileCache().Stats()
	st.lookups = after.Hits + after.Misses - before.Hits - before.Misses
	return st, nil
}

// simTraceCounts are the obs registry counters a traced call reports.
var simTraceCounts = []string{
	"hmm.reads", "hmm.writes", "hmm.rounds", "hmm.swaps",
	"hmm.cost.compute", "hmm.cost.deliver", "hmm.cost.swap",
	"bt.rounds", "bt.blocks.copies", "bt.blocks.moved", "bt.sort.comparisons",
	"bt.cost.pack", "bt.cost.compute", "bt.cost.deliver", "bt.cost.swap", "bt.cost.unpack",
	"self.global.steps", "self.local.runs",
}

// registryValues reads the named metrics from a registry snapshot.
func registryValues(reg *obs.Registry) map[string]float64 {
	vals := map[string]float64{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
	}
	return vals
}

func runSimulate(cfg config, out *outcome) error {
	st, err := timeSetup(cfg, out, func() (*simSetup, error) { return buildSimulate(cfg.seed) })
	if err != nil {
		return err
	}
	items := st.items

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	plain := make([]series, len(items))
	traced := make([]series, len(items))
	obsVals := make([]map[string]float64, len(items))
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
		// A traced run alternates traced and untraced passes, so its
		// tracing overhead is measured under the same conditions.
		tracing := cfg.trace && pass%2 == 0
		var pt *tracer
		if tracing {
			pt = tr
		}
		passSpan := pt.begin("bench.pass", 0, 0)
		for i, it := range items {
			if expired(pass) {
				break
			}
			var o *obs.Observer
			var reg *obs.Registry
			var md *memDelta
			if tracing {
				reg = obs.NewRegistry()
				o = obs.New(reg, nil)
				md = startMem()
			}
			id := pt.begin(it.sim+".Simulate", passSpan, 0)
			t0 := time.Now()
			ctxs, counts, err := simulateOnce(it, o)
			d := time.Since(t0)
			pt.end(id)
			if tracing {
				a, g := md.stop()
				allocBytes += a
				gcs += int(g)
				tracedCalls++
				traced[i].add(d)
			} else {
				plain[i].add(d)
			}

			chk := pt.begin("bench.check", passSpan, 0)
			switch {
			case err != nil:
				out.check(false, "%s: %v", it, err)
			case digest(ctxs) != it.ref:
				out.check(false, "%s: final contexts differ from dbsp.Run", it)
			case counts != it.counts:
				out.check(false, "%s: counts %+v, set-up had %+v", it, counts, it.counts)
			default:
				out.check(true, "")
			}
			if tracing {
				vals := registryValues(reg)
				if obsVals[i] == nil {
					obsVals[i] = vals
				} else if !sameValues(obsVals[i], vals) {
					out.problem("%s: obs counts differ between traced passes", it)
				}
			}
			pt.end(chk)
		}
		pt.end(passSpan)
	}
	out.profile = prof.stop()
	cache1 := cost.CompileCache().Stats()

	work := make([]int64, len(items))
	for i, it := range items {
		work[i] = it.work
	}
	rate, _ := throughput(work, plain)
	light := pick(items, plain, func(it *simItem) bool { return !it.heavy })
	heavy := pick(items, plain, func(it *simItem) bool { return it.heavy })
	_, lightMS := throughput(work, light)
	_, heavyMS := throughput(work, heavy)
	out.e2e["work_per_s"], out.e2e["light_ms"], out.e2e["heavy_ms"] = rate, lightMS, heavyMS
	for _, sim := range simulators {
		sim := sim
		times := pick(items, plain, func(it *simItem) bool { return it.sim == sim })
		r, _ := throughput(work, times)
		out.rows = append(out.rows, row{Name: sim + ".psteps_per_s", Value: r, Unit: "1/s", N: samples(times)})
	}
	out.rows = append(out.rows,
		row{Name: "work_per_s", Value: rate, Unit: "1/s", N: samples(plain)},
		row{Name: "light_ms", Value: lightMS, Unit: "ms", N: samples(light)},
		row{Name: "heavy_ms", Value: heavyMS, Unit: "ms", N: samples(heavy)},
		row{Name: "cost.compile.cache.misses", Value: float64(cache1.Misses - cache0.Misses), Unit: "count"},
	)
	if cache1.Misses != cache0.Misses {
		out.problem("timed passes compiled %d cost tables; set-up should have", cache1.Misses-cache0.Misses)
	}
	simLedger(st, out)

	if cfg.trace {
		out.spans = tr.snapshot()
		traceRate, _ := throughput(work, traced)
		out.setLayer("trace.overhead_pct", 100*(rate/traceRate-1), samples(traced))
		out.rows = append(out.rows, row{Name: "traced.work_per_s", Value: traceRate, Unit: "1/s", N: samples(traced)})
		for _, sim := range simulators {
			sim := sim
			times := pick(items, traced, func(it *simItem) bool { return it.sim == sim })
			r, callMS := throughput(work, times)
			n := samples(times)
			out.setLayer(sim+".psteps_per_s", r, n)
			out.setLayer(sim+".call_ms", callMS, n)
			var accesses, hostCost, words float64
			for i, it := range items {
				if it.sim == sim && len(traced[i]) > 0 {
					accesses += float64(it.counts.Accesses)
					hostCost += math.Float64frombits(it.counts.CostBits)
					words += float64(it.counts.Words)
				}
			}
			ns := callMS * 1e6
			switch sim {
			case "hmmsim":
				out.setLayer("hmmsim.ns_per_access", ns/accesses, n)
				out.setLayer("hmmsim.ns_per_cost", ns/hostCost, n)
			case "btsim":
				out.setLayer("btsim.ns_per_access", ns/accesses, n)
				out.setLayer("btsim.ns_per_block_word", ns/words, n)
			default:
				out.setLayer("selfsim.ns_per_cost", ns/hostCost, n)
			}
		}
		sums := map[string]float64{}
		for _, vals := range obsVals {
			for _, name := range simTraceCounts {
				sums[name] += vals[name]
			}
		}
		for _, name := range simTraceCounts[2:] {
			out.setLayer(name, sums[name], 0)
		}
		out.setLayer("hmm.accesses", sums["hmm.reads"]+sums["hmm.writes"], 0)
		out.setLayer("alloc_kb_per_call", float64(allocBytes)/1024/float64(tracedCalls), tracedCalls)
		out.setLayer("gc_cycles_per_call", float64(gcs)/float64(tracedCalls), tracedCalls)
		setCacheLayer(out, cache0, cache1)
	}
	return nil
}

// simLedger prints the exact counts of one pass, summed per simulator.
func simLedger(st *simSetup, out *outcome) {
	for _, sim := range simulators {
		h := fnv.New64a()
		var c simCounts
		for _, it := range st.items {
			if it.sim != sim {
				continue
			}
			putWords(h, it.counts.CostBits)
			c.Accesses += it.counts.Accesses
			c.Rounds += it.counts.Rounds
			c.Swaps += it.counts.Swaps
			c.Copies += it.counts.Copies
			c.Words += it.counts.Words
			c.GlobalSteps += it.counts.GlobalSteps
			c.LocalRuns += it.counts.LocalRuns
		}
		p := "simulate." + sim + "."
		out.ledger[p+"cost_bits"] = fmt.Sprintf("%016x", h.Sum64())
		switch sim {
		case "selfsim":
			out.ledger[p+"global_steps"] = fmt.Sprint(c.GlobalSteps)
			out.ledger[p+"local_runs"] = fmt.Sprint(c.LocalRuns)
		default:
			out.ledger[p+"accesses"] = fmt.Sprint(c.Accesses)
			out.ledger[p+"rounds"] = fmt.Sprint(c.Rounds)
			out.ledger[p+"swaps"] = fmt.Sprint(c.Swaps)
		}
		if sim == "btsim" {
			out.ledger[p+"block_copies"] = fmt.Sprint(c.Copies)
			out.ledger[p+"block_words"] = fmt.Sprint(c.Words)
		}
	}
	out.ledger["simulate.messages"] = fmt.Sprint(st.messages)
	out.ledger["simulate.cache_lookups_per_pass"] = fmt.Sprint(st.lookups)
}

// setCacheLayer reports the cost-table cache traffic of the timed phase.
func setCacheLayer(out *outcome, before, after cost.CacheStats) {
	out.setLayer("cost.compile.cache.hits", float64(after.Hits-before.Hits), 0)
	out.setLayer("cost.compile.cache.misses", float64(after.Misses-before.Misses), 0)
	out.setLayer("cost.compile.cache.entries", float64(after.Entries-before.Entries), 0)
}

func sameValues(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// samples counts the timing samples behind a set of series.
func samples(times []series) int {
	n := 0
	for _, t := range times {
		n += len(t)
	}
	return n
}
