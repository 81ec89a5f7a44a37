// Command dbsprun executes a named D-BSP program and prints the
// per-superstep cost breakdown (label, τ, h, charged time), then
// optionally simulates it on the HMM and BT hosts and reports the
// slowdowns.
//
// Usage:
//
//	dbsprun -prog sort -v 256 -g x^0.5 [-shards N]
//	        [-sim] [-check] [-metrics] [-trace-out f.jsonl] [-profile p]
//	        [-serve ADDR] [-serve-linger D] [-cost-profile F]
//
// The engine multiplexes the v processors over -shards per-shard
// context arenas and copies only the messages that cross a shard
// boundary, scaling to v = 2^20 and beyond. -shards 0 (the default)
// derives the count from v: one inline shard for small machines, up to
// GOMAXPROCS for big ones. Every shard count prints the same bytes —
// contexts, per-step costs, totals and error text are bit-identical.
//
// Programs: rotate, bcast, prefix, matmul, fft, fftrec, sort, permute,
// conv, reduce, stencil.
//
// With -check the D-BSP run is executed under the internal/invariant
// debug checker, which validates after every superstep that delivery
// conserved the message multiset, that no message left its cluster,
// and that Transpose declarations match the actual traffic; violations
// print to stderr and exit 1.
//
// With -metrics the run is instrumented through internal/obs: the
// engine and all three simulators (HMM, BT, and the Theorem 10
// self-simulation with v′ host processors) publish their accounting to
// one registry, and a per-phase/per-level cost report is printed. With
// -trace-out the structured simulation events are written as JSONL.
// With -profile PREFIX, CPU and heap profiles are written to
// PREFIX.cpu.pprof and PREFIX.heap.pprof.
//
// With -serve ADDR the run exposes the live observability endpoint
// (/metrics in Prometheus text format, /debug/costprofile, /healthz,
// /debug/pprof/*) while it executes; -serve-linger keeps it up after
// the run so one-shot invocations stay scrapeable (interrupt to stop
// early). -cost-profile writes the folded span-stack cost profile
// (rooted at the program name) for flamegraph tools.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/algos"
	"repro/internal/core/btsim"
	"repro/internal/core/hmmsim"
	"repro/internal/core/selfsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/progtest"
	"repro/internal/theory"
	"repro/internal/workload"
)

func buildProgram(name string, v int) (*dbsp.Program, error) {
	switch name {
	case "rotate":
		return progtest.Rotate(v, progtest.Descending(v)...), nil
	case "bcast":
		return algos.Broadcast(v, 42), nil
	case "prefix":
		return algos.PrefixSums(v, func(p int) int64 { return int64(p + 1) }), nil
	case "matmul":
		side := 1 << uint(dbsp.Log2(v)/2)
		if side*side != v {
			return nil, fmt.Errorf("matmul needs v = 4^k, got %d", v)
		}
		return algos.MatMul(v, workload.Matrix(1, side, 8), workload.Matrix(2, side, 8)), nil
	case "fft":
		return algos.DFTButterfly(v, workload.KeyFunc(3, v, 1<<20)), nil
	case "fftrec":
		return algos.DFTRecursive(v, workload.KeyFunc(3, v, 1<<20)), nil
	case "sort":
		return algos.Sort(v, workload.KeyFunc(4, v, int64(4*v))), nil
	case "permute":
		return algos.Permute(v, workload.Permutation(5, v), func(p int) int64 { return int64(p) }), nil
	case "conv":
		return algos.Convolution(v, workload.KeyFunc(6, v, 1000), workload.KeyFunc(7, v, 1000)), nil
	case "reduce":
		return algos.Reduce(v, algos.OpSum, func(p int) int64 { return int64(p + 1) }), nil
	case "stencil":
		return algos.Stencil1D(v, 4, func(p int) int64 { return int64(p * 16) }), nil
	default:
		return nil, fmt.Errorf("unknown program %q", name)
	}
}

// usageErr reports a flag-validation failure: the message, then the
// flag usage, then exit status 2. Every bad-invocation path funnels
// through here; runtime failures use fatal (exit 1) instead.
func usageErr(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), "dbsprun: %s\n\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// fatal reports a runtime failure and exits with status 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dbsprun: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	progName := flag.String("prog", "rotate", "program: rotate|bcast|prefix|matmul|fft|fftrec|sort|permute|conv|reduce|stencil")
	v := flag.Int("v", 64, "processors (power of two; matmul needs a power of four)")
	shards := flag.Int("shards", 0, "engine shard count (0 = derived from v, at most GOMAXPROCS; clamped to v)")
	gSpec := flag.String("g", "x^0.5", "bandwidth/access function: log, x^A, const:C, linear:S")
	sim := flag.Bool("sim", false, "also simulate on HMM and BT hosts with f = g")
	verbose := flag.Bool("steps", false, "print every superstep (default: summary by label)")
	trace := flag.Bool("trace", false, "record every message and print the locality histogram")
	check := flag.Bool("check", false, "validate per-superstep invariants (delivery, cluster discipline, transpose declarations)")
	metrics := flag.Bool("metrics", false, "instrument the run and all three simulators; print the cost report")
	vPrime := flag.Int("vprime", 0, "host processors for the self-simulation under -metrics (default v/4, min 1)")
	traceOut := flag.String("trace-out", "", "write structured simulation events to this JSONL file")
	profile := flag.String("profile", "", "write CPU/heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	serve := flag.String("serve", "", "serve live observability (/metrics, /debug/costprofile, /debug/pprof) on this host:port")
	serveLinger := flag.Duration("serve-linger", 0, "keep the observability endpoint up this long after the run (requires -serve; interrupt to stop early)")
	costProfile := flag.String("cost-profile", "", "write the folded span-stack cost profile to this file")
	flag.Parse()

	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %v", flag.Args())
	}
	if *v < 1 || *v&(*v-1) != 0 {
		usageErr("-v %d is not a power of two", *v)
	}
	if *shards < 0 {
		usageErr("-shards must be non-negative, got %d", *shards)
	}
	g, err := cost.Parse(*gSpec)
	if err != nil {
		usageErr("%v", err)
	}
	prog, err := buildProgram(*progName, *v)
	if err != nil {
		usageErr("%v", err)
	}
	if *vPrime != 0 && !*metrics {
		usageErr("-vprime requires -metrics")
	}
	if *vPrime == 0 {
		*vPrime = max(*v/4, 1)
	}
	if *vPrime < 1 || *vPrime&(*vPrime-1) != 0 || *vPrime > *v {
		usageErr("-vprime %d is not a power of two in [1, %d]", *vPrime, *v)
	}
	if *serve != "" {
		if _, _, err := net.SplitHostPort(*serve); err != nil {
			usageErr("bad -serve address: %v", err)
		}
	}
	if *serveLinger < 0 {
		usageErr("-serve-linger must be non-negative, got %v", *serveLinger)
	}
	if *serveLinger > 0 && *serve == "" {
		usageErr("-serve-linger requires -serve")
	}

	if *profile != "" {
		f, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			h, err := os.Create(*profile + ".heap.pprof")
			if err != nil {
				fatal("%v", err)
			}
			defer h.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(h); err != nil {
				fatal("heap profile: %v", err)
			}
		}()
	}

	// Observability: one registry + optional JSONL event sink and
	// span-stack profile, shared by the D-BSP run and every simulator.
	var o *obs.Observer
	var reg *obs.Registry
	var prof *obs.Profile
	if *metrics || *traceOut != "" || *serve != "" || *costProfile != "" {
		reg = obs.NewRegistry()
		var sink obs.Sink
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal("%v", err)
			}
			js := obs.NewJSONLSink(f)
			defer func() {
				if err := js.Close(); err != nil {
					fatal("trace-out: %v", err)
				}
				if err := f.Close(); err != nil {
					fatal("trace-out: %v", err)
				}
			}()
			sink = js
		}
		o = obs.New(reg, sink)
		if *costProfile != "" || *serve != "" {
			prof = obs.NewProfile()
			o.Prof = prof.Scope(*progName)
		}
	}

	var srv *obshttp.Server
	if *serve != "" {
		var err error
		srv, err = obshttp.Serve(*serve, obshttp.Options{Registry: reg, Profile: prof})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "dbsprun: serving observability on http://%s\n", srv.Addr())
	}

	var res *dbsp.Result
	var tr *dbsp.Trace
	var checker *invariant.Checker
	switch {
	case *check:
		res, tr, checker, err = invariant.Run(prog, g, *shards, o)
	case *trace || o != nil:
		res, tr, err = dbsp.RunShardedObserved(prog, g, *shards, o)
	default:
		res, err = dbsp.RunSharded(prog, g, *shards)
	}
	if err != nil {
		fatal("%v", err)
	}
	if checker != nil {
		if vs := checker.Violations(); len(vs) > 0 {
			for _, viol := range vs {
				fmt.Fprintf(os.Stderr, "dbsprun: invariant violation: %s\n", viol)
			}
			fatal("%d invariant violation(s)", int64(len(vs))+checker.Truncated())
		}
		fmt.Printf("invariant check: %d supersteps clean\n\n", len(res.Steps))
	}

	fmt.Printf("program %s on D-BSP(v=%d, µ=%d, g=%s): %d supersteps\n\n",
		prog.Name, prog.V, prog.Mu(), g.Name(), len(prog.Steps))
	if *verbose {
		fmt.Printf("%5s %6s %8s %4s %12s\n", "step", "label", "tau", "h", "cost")
		for i, sc := range res.Steps {
			fmt.Printf("%5d %6d %8d %4d %12.2f\n", i, sc.Label, sc.Tau, sc.H, sc.Cost)
		}
	} else {
		type agg struct {
			count int
			tau   int64
			cost  float64
		}
		byLabel := map[int]*agg{}
		for _, sc := range res.Steps {
			a := byLabel[sc.Label]
			if a == nil {
				a = &agg{}
				byLabel[sc.Label] = a
			}
			a.count++
			a.tau += sc.Tau
			a.cost += sc.Cost
		}
		fmt.Printf("%6s %6s %10s %14s\n", "label", "steps", "Σtau", "Σcost")
		for l := 0; l <= prog.LogV(); l++ {
			if a := byLabel[l]; a != nil {
				fmt.Printf("%6d %6d %10d %14.2f\n", l, a.count, a.tau, a.cost)
			}
		}
	}
	fmt.Printf("\nD-BSP time T = %.2f (computation %d, communication %.2f)\n",
		res.Cost, res.TotalTau(), res.CommCost())

	if *trace && tr != nil {
		fmt.Printf("\n%d messages routed; label slack %.2f levels\n%s",
			tr.Messages(), tr.Slack(), tr.FormatHistogram())
	}

	if *sim || *metrics {
		h, err := hmmsim.Simulate(prog, g, &hmmsim.Options{Obs: o})
		if err != nil {
			fatal("hmm: %v", err)
		}
		b, err := btsim.Simulate(prog, g, &btsim.Options{Obs: o})
		if err != nil {
			fatal("bt: %v", err)
		}
		lam := prog.Lambda(true)
		predH := theory.HMMSimulation(g, prog.V, prog.Mu(), float64(res.TotalTau()), lam)
		predB := theory.BTSimulation(prog.V, prog.Mu(), float64(res.TotalTau()), lam)
		fmt.Printf("\nHMM simulation (f=g): cost %.3g  slowdown %.1f  Thm5 bound %.3g (ratio %.2f)\n",
			h.HostCost, h.HostCost/res.Cost, predH, h.HostCost/predH)
		fmt.Printf("BT  simulation (f=g): cost %.3g  slowdown %.1f  Thm12 bound %.3g (ratio %.2f), %d block transfers\n",
			b.HostCost, b.HostCost/res.Cost, predB, b.HostCost/predB, b.Blocks.Copies)
	}
	if *metrics {
		sf, err := selfsim.Simulate(prog, g, *vPrime, &selfsim.Options{Obs: o})
		if err != nil {
			fatal("self: %v", err)
		}
		fmt.Printf("self-simulation (v'=%d): cost %.3g  slowdown %.1f  Thm10 target v/v' = %d\n",
			*vPrime, sf.HostCost, sf.HostCost/res.Cost, prog.V / *vPrime)
		fmt.Printf("\n%s", obs.Report(reg))
	}

	if *costProfile != "" {
		f, err := os.Create(*costProfile)
		if err != nil {
			fatal("%v", err)
		}
		err = prof.WriteFolded(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("%v", err)
		}
	}
	if srv != nil {
		if *serveLinger > 0 {
			fmt.Fprintf(os.Stderr, "dbsprun: lingering %v for scrapes on http://%s (interrupt to stop)\n",
				*serveLinger, srv.Addr())
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			select {
			case <-time.After(*serveLinger):
			case <-sig:
			}
			signal.Stop(sig)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal("observability shutdown: %v", err)
		}
	}
}
