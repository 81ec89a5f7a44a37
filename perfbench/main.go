// Command perfbench measures the host time the D-BSP toolkit takes,
// end to end and layer by layer, under three workloads that each put a
// different set of the repository's layers under load:
//
//	simulate  hmmsim, btsim and selfsim over the paper's case studies
//	engine    the native and sharded D-BSP engines (dbsp.Run/RunSharded)
//	dbspd     the multi-tenant service (serve, sweep, experiments, HTTP)
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The workload's inputs (matrices, keys, random programs, the dbspd
// submission sequence) are generated from --seed; the timed phase lasts
// --seconds. Every output is checked against references built in
// set-up. Standard output carries the environment record, the exact
// model-count ledger and the workload's own rows, and ends with one
// JSON line: the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1), which also writes its spans to
// .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/det"
)

// metricDef names one metric of the final JSON line and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics of an untraced run. Every workload reports
// every one of them, each measured on that workload's own layers:
//
//	work_per_s  simulate, engine: guest processor-supersteps (v × the
//	            supersteps of the program as built) per host second,
//	            total work ÷ the sum of per-item median times;
//	            dbspd: submissions completed and checked per second
//	light_ms    simulate: one pass over the in-L2 items (v ≤ 1024), the
//	            sum of their median call times; engine: the same over
//	            the small-v block; dbspd: p50 latency of a cache hit
//	heavy_ms    simulate: the past-L2 item (v = 2^14); engine: the
//	            big-v block (v = 2^17, 2^20); dbspd: p50 of a cold run
//	peak_rss_mb peak resident set size of the process
//	setup_s     median of the run's cold set-ups (see setupBefore)
//	ok_ratio    operations whose output passed its check ÷ attempted
var endToEnd = []metricDef{
	{"work_per_s", "1/s"},
	{"light_ms", "ms"},
	{"heavy_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the metrics of a traced run. Every workload reports
// every one; a timing of a layer the workload does not call reads 0
// with no samples. cpu_samples.<layer> counts the CPU profile samples
// of the timed phase with that layer's code on the stack, which shows
// what ran underneath the benchmark's calls.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_pct", "%"},
		{"cpu_samples.total", "count"},
		{"cpu_samples.hmmsim", "count"},
		{"cpu_samples.btsim", "count"},
		{"cpu_samples.selfsim", "count"},
		{"cpu_samples.dbsp", "count"},
		{"cpu_samples.sweep", "count"},
		{"cpu_samples.experiments", "count"},
		{"cpu_samples.serve", "count"},
		{"cpu_samples.separation_violations", "count"},
		{"alloc_kb_per_call", "kB"},
		{"gc_cycles_per_call", "count"},
		{"cost.compile.cache.hits", "count"},
		{"cost.compile.cache.misses", "count"},
		{"cost.compile.cache.entries", "count"},

		{"hmmsim.psteps_per_s", "1/s"},
		{"hmmsim.call_ms", "ms"},
		{"hmmsim.ns_per_access", "ns"},
		{"hmmsim.ns_per_cost", "ns"},
		{"btsim.psteps_per_s", "1/s"},
		{"btsim.call_ms", "ms"},
		{"btsim.ns_per_access", "ns"},
		{"btsim.ns_per_block_word", "ns"},
		{"selfsim.psteps_per_s", "1/s"},
		{"selfsim.call_ms", "ms"},
		{"selfsim.ns_per_cost", "ns"},
		{"hmm.accesses", "count"},
		{"hmm.rounds", "count"},
		{"hmm.swaps", "count"},
		{"hmm.cost.compute", "cost"},
		{"hmm.cost.deliver", "cost"},
		{"hmm.cost.swap", "cost"},
		{"bt.rounds", "count"},
		{"bt.blocks.copies", "count"},
		{"bt.blocks.moved", "words"},
		{"bt.sort.comparisons", "count"},
		{"bt.cost.pack", "cost"},
		{"bt.cost.compute", "cost"},
		{"bt.cost.deliver", "cost"},
		{"bt.cost.swap", "cost"},
		{"bt.cost.unpack", "cost"},
		{"self.global.steps", "count"},
		{"self.local.runs", "count"},

		{"small_v.psteps_per_s", "1/s"},
		{"big_v.psteps_per_s", "1/s"},
	}
	for _, v := range smallV {
		defs = append(defs, metricDef{runCallMS("dbsp.Run", v), "ms"})
	}
	defs = append(defs, metricDef{runCallMS("dbsp.Run", bigV[0]), "ms"})
	for _, v := range append(append([]int(nil), smallV...), bigV...) {
		defs = append(defs, metricDef{runCallMS("dbsp.RunSharded", v), "ms"})
	}
	defs = append(defs,
		metricDef{runCallMS("dbsp.NewContextsSharded", bigV[1]), "ms"},
		metricDef{"dbsp.supersteps", "count"},
		metricDef{"dbsp.messages", "count"},

		metricDef{"jobs_per_s", "1/s"},
		metricDef{"hit_p50_ms", "ms"},
		metricDef{"hit_p99_ms", "ms"},
		metricDef{"cold_p50_ms", "ms"},
		metricDef{"cold_p90_ms", "ms"},
		metricDef{"retained_kb_per_job", "kB"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.replay_ms", "ms"},
		metricDef{"serve.dispatch_ms", "ms"},
		metricDef{"serve.overhead_ms", "ms"},
		metricDef{"hit_share", "ratio"},
		metricDef{"dbspd.hits", "count"},
		metricDef{"dbspd.cold", "count"},
		metricDef{"serve.jobs.submitted", "count"},
		metricDef{"serve.jobs.done", "count"},
		metricDef{"serve.jobs.failed", "count"},
		metricDef{"serve.cache.hits", "count"},
		metricDef{"serve.cache.misses", "count"},
		metricDef{"heap_live_mb", "MB"},
		metricDef{"sweep.makespan_ms", "ms"},
	)
	for _, id := range gridIDs() {
		defs = append(defs, metricDef{"experiments.wall_ms." + id, "ms"})
	}
	return defs
}()

// runCallMS names the per-call time of an engine entry point at one v.
func runCallMS(fn string, v int) string { return fmt.Sprintf("%s.call_ms.v%d", fn, v) }

// A run times several cold set-ups: setupBefore in fresh child
// processes, then its own, and after the timed phase setupAfter more in
// child processes. Each builds its programs, compiles its cost tables
// and starts its server from nothing. setup_s is their median; taking
// samples on both sides of the timed phase lets it see two states of a
// shared host, so one slow spell does not move it.
var setupBefore, setupAfter = 2, 4

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; spans go under .bench_build there
}

func (c config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds * float64(time.Second)))
}

// row is one printed figure: a value, its unit and the number of
// samples behind it (0 for a count or a derived figure). Few marks a
// percentile with fewer than minBeyond samples above it.
type row struct {
	Name  string
	Value float64
	Unit  string
	N     int
	Few   bool
}

func (r row) String() string {
	s := fmt.Sprintf("%s %s %s n=%d", r.Name, fmtFloat(r.Value), r.Unit, r.N)
	if r.Few {
		s += " few-samples"
	}
	return s
}

// checks counts checked operations and describes the failed ones.
type checks struct {
	attempted, failed int
	problems          []string
}

// maxProblems caps the failed checks described, not those counted.
const maxProblems = 20

// check records one checked operation.
func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.problems) < maxProblems {
			c.problems = append(c.problems, fmt.Sprintf(format, args...))
		}
	}
}

// problem records a failed check outside the counted operations (a
// set-up reference or a ledger mismatch).
func (c *checks) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// merge adds another set of checks to c.
func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.problems = append(c.problems, o.problems...)
}

// outcome is what a workload hands back for printing.
type outcome struct {
	checks
	e2e     map[string]float64 // end-to-end metrics
	setups  []float64          // set-up times in seconds
	rows    []row              // the workload's own rows
	layer   map[string]row     // per-layer metrics (traced)
	ledger  map[string]string  // exact model counts
	spans   []span
	profile []byte // gzipped CPU profile of the timed phase (traced)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]row{}, ledger: map[string]string{}}
}

func (o *outcome) setLayer(name string, v float64, n int) {
	o.layer[name] = row{Name: name, Value: v, N: n}
}

// minPasses is how many passes a batch workload always completes: one,
// or in a traced run one traced and one untraced, so both kinds of
// figure exist however short the run.
func minPasses(cfg config) int {
	if cfg.trace {
		return 2
	}
	return 1
}

// workloads maps each name to its run and to its set-up alone, which a
// child process times for setup_s (release frees what set-up holds).
var workloads = map[string]struct {
	run   func(config, *outcome) error
	setup func(seed uint64) (release func(), err error)
}{
	"simulate": {runSimulate, func(seed uint64) (func(), error) {
		_, err := buildSimulate(seed)
		return func() {}, err
	}},
	"engine": {runEngine, func(seed uint64) (func(), error) {
		_, err := buildEngine(seed)
		return func() {}, err
	}},
	"dbspd": {runDBSPD, func(seed uint64) (func(), error) {
		s, err := buildDBSPD(seed)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "simulate, engine or dbspd")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: record spans and report per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "time one set-up of the workload, print its seconds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload simulate|engine|dbspd, --seconds > 0, --trace 0|1\n")
		return 2
	}
	if *setupOnly {
		start := time.Now()
		release, err := wl.setup(*seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", *name, err)
			return 1
		}
		fmt.Fprintln(stdout, fmtFloat(time.Since(start).Seconds())) //lint:ignore detflow set-up time is a benchmark measurement, read back by the parent run as one sample of setup_s
		release()
		return 0
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, root: root}
	env := readEnvironment(root)
	env.Workload, env.Seed, env.Seconds, env.Trace = cfg.workload, cfg.seed, cfg.seconds, cfg.trace

	out := newOutcome()
	if err := wl.run(cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for i := 0; i < setupAfter; i++ {
		t, err := childSetup(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		out.setups = append(out.setups, t)
	}
	out.e2e["setup_s"] = median(out.setups)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	if out.attempted > 0 {
		out.e2e["ok_ratio"] = float64(out.attempted-out.failed) / float64(out.attempted)
	}
	if cfg.trace {
		if err := finishTrace(cfg, out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := report(stdout, env, cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// finishTrace writes the spans and the CPU profile out and counts the
// profile samples per layer.
func finishTrace(cfg config, out *outcome) error {
	base := filepath.Join(cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := writeSpans(base+".jsonl", out.spans); err != nil {
		return err
	}
	if err := os.WriteFile(base+".pprof", out.profile, 0o644); err != nil {
		return err
	}
	samples, err := parseProfile(out.profile)
	if err != nil {
		return err
	}
	var total, violations int64
	byLayer := map[string]int64{}
	for _, s := range samples {
		in := stackLayers(s)
		total += s.Count
		for l := range in {
			byLayer[l] += s.Count
		}
		if separationViolated(cfg.workload, in) {
			violations += s.Count
		}
	}
	out.setLayer("cpu_samples.total", float64(total), 0)
	for _, l := range profileLayers {
		out.setLayer("cpu_samples."+l, float64(byLayer[l]), 0)
	}
	out.setLayer("cpu_samples.separation_violations", float64(violations), 0)
	return nil
}

// report prints the environment, ledger, rows and span summary, then
// the final JSON line.
func report(w io.Writer, env environment, cfg config, out *outcome) error {
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	for _, k := range det.SortedKeys(out.ledger) {
		fmt.Fprintf(w, "ledger %s %s\n", k, out.ledger[k])
	}
	for _, r := range out.rows {
		fmt.Fprintf(w, "row %s\n", r)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, s := range summarize(out.spans) {
			fmt.Fprintf(w, "span %s calls=%d total_ms=%s self_ms=%s\n",
				s.Name, s.Calls, fmtFloat(s.TotalMS), fmtFloat(s.SelfMS))
		}
	}
	for _, d := range defs {
		var v float64
		if cfg.trace {
			r := out.layer[d.Name]
			r.Name, r.Unit = d.Name, d.Unit
			v = r.Value
			fmt.Fprintf(w, "layer %s\n", r)
		} else {
			v = out.e2e[d.Name]
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, d.Name+" is not a finite number")
			v = 0
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.problems) == 0 && out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// memDelta measures the Go allocator around a stretch of work.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns the bytes allocated and GC cycles completed since start.
func (m *memDelta) stop() (allocBytes uint64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc, after.NumGC - m.before.NumGC
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// timeSetup times setupBefore cold set-ups in child processes, then
// runs build here, records the times in out and returns build's result.
func timeSetup[T any](cfg config, out *outcome, build func() (T, error)) (T, error) {
	var v T
	for i := 0; i < setupBefore; i++ {
		t, err := childSetup(cfg)
		if err != nil {
			return v, err
		}
		out.setups = append(out.setups, t)
	}
	start := time.Now()
	v, err := build()
	if err != nil {
		return v, err
	}
	out.setups = append(out.setups, time.Since(start).Seconds()) //lint:ignore detflow set-up time is a benchmark measurement; it is printed as setup_s and never reaches the program's byte-compared outputs
	return v, nil
}

// childSetup runs this benchmark's set-up of cfg's workload in a fresh
// process, waits for it to end and returns the seconds it reported.
func childSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up in a child process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}
