// Command experiments regenerates every table of EXPERIMENTS.md: each
// quantitative claim of the paper (Facts 1-2, Theorems 5/10/12,
// Corollaries 6/11, Propositions 7-9, the Section 5.3 comparisons and
// the substrate bounds) as a measured-vs-predicted table, run across a
// bounded worker pool by the internal/sweep engine.
//
// Usage:
//
//	experiments [-quick] [-run REGEXP] [-only E05[,E09,...]] [-workers N]
//	            [-keep-going] [-timeout D] [-seed S] [-json] [-jsonl F]
//	            [-metrics] [-trace-out F] [-profile P]
//	            [-serve ADDR] [-serve-linger D] [-cost-profile F]
//
// -quick trims the parameter sweeps for a fast smoke run; -run selects
// experiments whose id matches the regexp and -only by exact ids.
// -workers bounds the worker pool (default GOMAXPROCS); tables, their
// order and every measured value are byte-identical for any worker
// count — per-job seeds derive from the base -seed and the experiment
// id, never from scheduling. -keep-going runs the remaining experiments
// after a failure instead of cancelling the sweep; -timeout bounds the
// whole run. -json emits the tables as a JSON array; -jsonl streams one
// sweep record per experiment (id, status, seed, wall-clock, captured
// metrics) to a file. -metrics instruments every simulation the tables
// run and appends the aggregate internal/obs report (including the
// sweep engine's own throughput counters); -trace-out streams the
// structured events to a JSONL file; -profile writes P.cpu.pprof and
// P.heap.pprof. Timing goes to stderr so stdout stays deterministic.
//
// -serve ADDR starts the live observability endpoint (host:port; port 0
// picks a free port, printed to stderr): /metrics in Prometheus text
// format, /debug/progress with per-job sweep state, /debug/costprofile
// with the folded span-stack cost profile, /healthz and
// /debug/pprof/*. The exporter only reads registry snapshots, so
// serving never perturbs the charged costs. -serve-linger keeps the
// endpoint up that long after the sweep finishes (interrupt to stop
// early); -cost-profile writes the folded stacks to a file for
// flamegraph tools. Both serving and profiling leave stdout
// byte-identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"regexp"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/sweep"
)

func main() {
	quick := flag.Bool("quick", false, "trim parameter sweeps for a fast smoke run")
	runPat := flag.String("run", "", "run only experiments whose id matches this regexp")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E05,E09)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	keepGoing := flag.Bool("keep-going", false, "run remaining experiments after a failure")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
	seed := flag.Uint64("seed", 0, "base seed for the deterministic per-experiment workloads")
	asJSON := flag.Bool("json", false, "emit the tables as a JSON array")
	jsonlOut := flag.String("jsonl", "", "write one sweep record per experiment to this JSONL file")
	metrics := flag.Bool("metrics", false, "instrument the simulations and append the aggregate metrics report")
	traceOut := flag.String("trace-out", "", "write structured simulation events to this JSONL file")
	profile := flag.String("profile", "", "write CPU and heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	serve := flag.String("serve", "", "serve live observability (/metrics, /debug/progress, /debug/pprof) on this host:port")
	serveLinger := flag.Duration("serve-linger", 0, "keep the observability endpoint up this long after the sweep (requires -serve; interrupt to stop early)")
	costProfile := flag.String("cost-profile", "", "write the folded span-stack cost profile to this file")
	flag.Parse()

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
		cpu, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fatal("cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			cpu.Close()
			heap, err := os.Create(*profile + ".heap.pprof")
			if err != nil {
				fatal("%v", err)
			}
			defer heap.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(heap); err != nil {
				fatal("heap profile: %v", err)
			}
		}()
	}

	jobs := selectJobs(*runPat, *only)

	var reg *obs.Registry
	var sink *obs.JSONLSink
	if *metrics || *serve != "" {
		reg = obs.NewRegistry()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		sink = obs.NewJSONLSink(f)
		defer func() {
			if err := sink.Close(); err != nil {
				fatal("%v", err)
			}
		}()
	}
	var engineObs *obs.Observer
	if reg != nil || sink != nil {
		if sink != nil {
			engineObs = obs.New(reg, sink)
		} else {
			engineObs = obs.New(reg, nil)
		}
	}

	var prof *obs.Profile
	if *costProfile != "" || *serve != "" {
		prof = obs.NewProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var prog *sweep.Progress
	var srv *obshttp.Server
	if *serve != "" {
		prog = sweep.NewProgress()
		var err error
		srv, err = obshttp.Serve(*serve, obshttp.Options{
			Registry: reg,
			Progress: func() any { return prog.Snapshot() },
			Profile:  prof,
		})
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: serving observability on http://%s\n", srv.Addr())
		// Interrupt cancels the sweep (or cuts the linger short) and
		// still shuts the endpoint down gracefully.
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	start := time.Now()
	outcomes, runErr := sweep.Run(ctx, jobs, sweep.Options{
		Workers:     *workers,
		KeepGoing:   *keepGoing,
		Quick:       *quick,
		Seed:        *seed,
		Metrics:     *metrics || *serve != "",
		LiveMetrics: *serve != "",
		Obs:         engineObs,
		Progress:    prog,
		Profile:     prof,
	})
	wall := time.Since(start) //lint:ignore detflow wall-clock total is reported on stderr only; golden-compared stdout never sees it

	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err != nil {
			fatal("%v", err)
		}
		err = sweep.WriteJSONL(f, outcomes)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal("%v", err)
		}
	}

	tables := make([]*experiments.Table, 0, len(outcomes))
	for _, o := range outcomes {
		if o.Status != sweep.StatusOK {
			fmt.Fprintf(os.Stderr, "experiments: %s %s: %v\n", o.ID, o.Status, o.Err)
			continue
		}
		tables = append(tables, o.Value.(*experiments.Table))
	}

	if *asJSON {
		fmt.Println("[")
		for i, t := range tables {
			raw, err := t.JSON()
			if err != nil {
				fatal("%v", err)
			}
			os.Stdout.Write(raw)
			if i+1 < len(tables) {
				fmt.Println(",")
			}
		}
		fmt.Println("\n]")
	} else {
		fmt.Printf("# Experiment tables (generated %s, %d experiments)\n\n",
			time.Now().Format("2006-01-02"), len(tables)) //lint:ignore detflow generated-on date header; the determinism gate compares reruns seconds apart, which format identically
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		if *metrics {
			// Fold the per-experiment registries into the engine registry
			// so one report covers the simulations and the sweep itself.
			// With -serve the engine already folded them live (LiveMetrics);
			// folding again would double-count.
			if *serve == "" {
				for _, o := range outcomes {
					reg.Import(o.Metrics)
				}
			}
			fmt.Println("# Aggregate simulation metrics (all experiment runs)")
			fmt.Println()
			fmt.Println(obs.Report(withoutScrapeOnly(reg)))
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: %d jobs on %d workers in %v\n",
		len(outcomes), effectiveWorkers(*workers, len(jobs)), wall.Round(time.Millisecond))

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
		if *serveLinger > 0 && runErr == nil {
			fmt.Fprintf(os.Stderr, "experiments: lingering %v for scrapes on http://%s (interrupt to stop)\n",
				*serveLinger, srv.Addr())
			select {
			case <-time.After(*serveLinger):
			case <-ctx.Done():
			}
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fatal("observability shutdown: %v", err)
		}
	}
	if runErr != nil {
		// An interrupt that arrived during the sweep surfaces as the
		// context error; one during the linger (after a clean sweep) is a
		// normal exit.
		if ctx.Err() != nil && errIsCtx(runErr) && sweepCleanBeforeCancel(outcomes) {
			return
		}
		fatal("%v", runErr)
	}
}

// errIsCtx reports whether err is the sweep context's cancellation or
// deadline error.
func errIsCtx(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}

// sweepCleanBeforeCancel reports whether every job finished ok — i.e.
// a cancellation arrived only after the sweep's real work was done.
func sweepCleanBeforeCancel(outcomes []sweep.Outcome) bool {
	for _, o := range outcomes {
		if o.Status != sweep.StatusOK {
			return false
		}
	}
	return true
}

// selectJobs filters the experiment grid by the -run regexp and the
// -only id list (both optional, both validated).
func selectJobs(runPat, only string) []sweep.Job {
	jobs := experiments.Jobs()
	if runPat != "" {
		re, err := regexp.Compile(runPat)
		if err != nil {
			usageErr("bad -run regexp: %v", err)
		}
		kept := jobs[:0]
		for _, j := range jobs {
			if re.MatchString(j.ID) {
				kept = append(kept, j)
			}
		}
		jobs = kept
	}
	if only != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(only, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments.Lookup(id); !ok {
				usageErr("unknown id %q", id)
			}
			want[id] = true
		}
		kept := jobs[:0]
		for _, j := range jobs {
			if want[j.ID] {
				kept = append(kept, j)
			}
		}
		jobs = kept
	}
	if len(jobs) == 0 {
		usageErr("no experiments match -run %q -only %q", runPat, only)
	}
	return jobs
}

// effectiveWorkers mirrors the engine's pool sizing for the stderr
// summary line.
func effectiveWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: %s\n", fmt.Sprintf(format, args...))
	os.Exit(1)
}

// scrapeOnly names the metrics /metrics serves but the stdout report
// leaves out, so that stdout is byte-identical between runs and with
// or without -serve: the sweep engine's per-job wall-clock histogram,
// which varies from run to run, and the live sweep.Progress gauges,
// which only a served run registers.
var scrapeOnly = []string{"sweep.job.wall_ms", "sweep.eta_ms", "sweep.jobs.queued", "sweep.jobs.running"}

// withoutScrapeOnly copies reg without the scrapeOnly metrics, for the
// stdout report. The copy renders the same bytes: every other histogram
// in reg arrived by Import, so its sum is already the bucket-floor sum
// a second Import reproduces.
func withoutScrapeOnly(reg *obs.Registry) *obs.Registry {
	var kept []obs.Sample
	for _, s := range reg.Snapshot() {
		if !slices.Contains(scrapeOnly, s.Name) {
			kept = append(kept, s)
		}
	}
	out := obs.NewRegistry()
	out.Import(kept)
	return out
}

// usageErr reports a flag-validation failure: the message, then the
// flag usage, then exit status 2.
func usageErr(format string, args ...any) {
	fmt.Fprintf(flag.CommandLine.Output(), "experiments: %s\n\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}
