package repro

// One benchmark per experiment of DESIGN.md's index (E01..E16): each
// runs the mechanical simulation behind the corresponding EXPERIMENTS.md
// table at a representative size and reports the charged model cost —
// plus the simulator's own counters (accesses, rounds, block transfers)
// — as custom metrics alongside wall-clock time. `go test -bench=.
// -benchmem` regenerates the whole set; cmd/experiments prints the full
// sweeps.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/algos"
	"repro/internal/amsort"
	"repro/internal/bt"
	"repro/internal/core/btsim"
	"repro/internal/core/hmmsim"
	"repro/internal/core/selfsim"
	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/experiments"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/progtest"
	"repro/internal/sweep"
	"repro/internal/workload"
)

var alphaHalf = cost.Poly{Alpha: 0.5}

// reportCost attaches the charged model cost of the last iteration.
func reportCost(b *testing.B, c float64) {
	b.ReportMetric(c, "model-cost")
}

// reportHMM attaches the HMM simulator's counters for the last
// iteration alongside the model cost, so `go test -bench` output tracks
// the same quantities the internal/obs registry reports.
func reportHMM(b *testing.B, res *hmmsim.Result) {
	reportCost(b, res.HostCost)
	b.ReportMetric(float64(res.Stats.Accesses()), "accesses/op")
	b.ReportMetric(float64(res.Rounds), "rounds/op")
}

// reportBT attaches the BT simulator's counters.
func reportBT(b *testing.B, res *btsim.Result) {
	reportCost(b, res.HostCost)
	b.ReportMetric(float64(res.Stats.Accesses()), "accesses/op")
	b.ReportMetric(float64(res.Blocks.Copies), "block-transfers/op")
	b.ReportMetric(float64(res.Blocks.Words), "block-words/op")
}

// reportSelf attaches the self-simulation's partition counters.
func reportSelf(b *testing.B, res *selfsim.Result) {
	reportCost(b, res.HostCost)
	b.ReportMetric(float64(res.GlobalSteps), "global-steps/op")
	b.ReportMetric(float64(res.LocalRuns), "local-runs/op")
}

func BenchmarkE01TouchHMM(b *testing.B) {
	const n = 1 << 16
	var m *hmm.Machine
	for i := 0; i < b.N; i++ {
		m = hmm.New(alphaHalf, n)
		m.Touch(n)
	}
	reportCost(b, m.Cost())
	b.ReportMetric(float64(m.Stats().Accesses()), "accesses/op")
}

func BenchmarkE02TouchBT(b *testing.B) {
	const n = 1 << 16
	var m *bt.Machine
	for i := 0; i < b.N; i++ {
		m = bt.New(alphaHalf, n)
		m.Touch(n)
	}
	reportCost(b, m.Cost())
	b.ReportMetric(float64(m.BlockStats().Copies), "block-transfers/op")
}

func BenchmarkE03HMMSlowdown(b *testing.B) {
	prog := progtest.Rotate(256, progtest.Descending(256)...)
	var last *hmmsim.Result
	for i := 0; i < b.N; i++ {
		res, err := hmmsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportHMM(b, last)
}

func BenchmarkE04NaiveVsScheduled(b *testing.B) {
	prog := progtest.Rotate(256, progtest.Fine(256, 12)...)
	var last *hmmsim.Result
	for i := 0; i < b.N; i++ {
		res, err := hmmsim.SimulateNaive(prog, alphaHalf)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportHMM(b, last)
}

func BenchmarkE05MatMul(b *testing.B) {
	prog := algos.MatMul(256, workload.Matrix(11, 16, 4), workload.Matrix(12, 16, 4))
	var last *hmmsim.Result
	for i := 0; i < b.N; i++ {
		res, err := hmmsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportHMM(b, last)
}

func BenchmarkE06DFT(b *testing.B) {
	prog := algos.DFTButterfly(256, workload.KeyFunc(21, 256, 1<<20))
	var last *hmmsim.Result
	for i := 0; i < b.N; i++ {
		res, err := hmmsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportHMM(b, last)
}

func BenchmarkE07Sort(b *testing.B) {
	prog := algos.Sort(256, workload.KeyFunc(31, 256, 1024))
	var last *hmmsim.Result
	for i := 0; i < b.N; i++ {
		res, err := hmmsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportHMM(b, last)
}

func BenchmarkE08Brent(b *testing.B) {
	prog := progtest.Rotate(64, progtest.Descending(64)...)
	var last *selfsim.Result
	for i := 0; i < b.N; i++ {
		res, err := selfsim.Simulate(prog, alphaHalf, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportSelf(b, last)
}

func BenchmarkE09BTSim(b *testing.B) {
	prog := progtest.Rotate(256, progtest.Descending(256)...)
	var last *btsim.Result
	for i := 0; i < b.N; i++ {
		res, err := btsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportBT(b, last)
}

func BenchmarkE10BTMatMul(b *testing.B) {
	prog := algos.MatMul(256, workload.Matrix(13, 16, 4), workload.Matrix(14, 16, 4))
	var last *btsim.Result
	for i := 0; i < b.N; i++ {
		res, err := btsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportBT(b, last)
}

func BenchmarkE11BTDFTChoice(b *testing.B) {
	prog := algos.DFTRecursive(256, workload.KeyFunc(41, 256, 1<<20))
	var last *btsim.Result
	for i := 0; i < b.N; i++ {
		res, err := btsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportBT(b, last)
}

func BenchmarkE14SmoothingAblation(b *testing.B) {
	logv := dbsp.Log2(256)
	prog := progtest.Rotate(256, logv-1, 0, logv-1, 0, logv-1, 0)
	var last *hmmsim.Result
	for i := 0; i < b.N; i++ {
		res, err := hmmsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportHMM(b, last)
}

func BenchmarkE15Compute(b *testing.B) {
	prog := progtest.ComputeOnly(256, 4, 0, 0, 0, 0, 0, 0)
	var last *btsim.Result
	for i := 0; i < b.N; i++ {
		res, err := btsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportBT(b, last)
}

func BenchmarkE16AMSort(b *testing.B) {
	const count, rec = 1 << 13, 2
	keys := workload.Keys(51, count, 10*count)
	var c float64
	var comps int64
	for i := 0; i < b.N; i++ {
		p := amsort.NewPlan(alphaHalf, rec, count)
		hot := int64(0)
		cold := p.HotWords()
		data := cold + p.ColdWords()
		scratch := data + count*rec
		m := bt.New(alphaHalf, scratch+count*rec+8)
		for j := int64(0); j < count; j++ {
			m.Poke(data+j*rec, keys[j])
			m.Poke(data+j*rec+1, j)
		}
		comps = amsort.Sort(m, p, data, scratch, hot, cold)
		c = m.Cost()
	}
	reportCost(b, c)
	b.ReportMetric(float64(comps), "comparisons/op")
}

// BenchmarkRunSharded measures the D-BSP engine across shard counts
// (not a paper experiment; included for harness costing) at a small
// machine, where per-superstep overhead dominates and the default is
// one inline shard, and at a big one, where arena traffic dominates.
// Every sub-benchmark's result is bit-identical (FuzzEnginesAgree), so
// ns/op compares directly within each v; shards=default is dbsp.Run.
func BenchmarkRunSharded(b *testing.B) {
	for _, v := range []int{64, 1 << 14} {
		prog := progtest.Rotate(v, progtest.Descending(v)...)
		for _, shards := range []int{1, 8, 0} {
			name := fmt.Sprintf("v=%d/shards=%d", v, shards)
			if shards == 0 {
				name = fmt.Sprintf("v=%d/shards=default", v)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := dbsp.RunSharded(prog, alphaHalf, shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSweepEngine measures the experiment-sweep scheduler itself
// (not a paper experiment): the full quick grid through the bounded
// worker pool, serial vs GOMAXPROCS-wide, so regressions in dispatch or
// outcome collection show up next to the simulator benchmarks.
func BenchmarkSweepEngine(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "workers=max"
		if workers == 1 {
			name = "workers=1"
		}
		b.Run(name, func(b *testing.B) {
			jobs := experiments.Jobs()
			for i := 0; i < b.N; i++ {
				outcomes, err := sweep.Run(context.Background(), jobs,
					sweep.Options{Workers: workers, Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(outcomes) != len(jobs) {
					b.Fatalf("%d outcomes for %d jobs", len(outcomes), len(jobs))
				}
			}
			b.ReportMetric(float64(len(jobs))/float64(b.Elapsed().Seconds())*float64(b.N), "jobs/sec")
		})
	}
}

func BenchmarkE17RouteDelivery(b *testing.B) {
	prog := algos.DFTRecursive(256, workload.KeyFunc(62, 256, 1<<20))
	var last *btsim.Result
	for i := 0; i < b.N; i++ {
		res, err := btsim.Simulate(prog, alphaHalf, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportBT(b, last)
}

// BenchmarkE18DirectDelivery runs btsim with direct delivery disabled,
// so every cluster size delivers through the sorting path experiment
// E18 ablates: extraction, the record sort and the inbox merge.
func BenchmarkE18DirectDelivery(b *testing.B) {
	prog := progtest.Rotate(256, progtest.Fine(256, 12)...)
	opts := &btsim.Options{DirectDeliveryMaxBlocks: -1}
	var last *btsim.Result
	for i := 0; i < b.N; i++ {
		res, err := btsim.Simulate(prog, alphaHalf, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportBT(b, last)
}

// BenchmarkObserveOverhead times hmmsim and btsim on algos.Sort(1024)
// under x^0.5 (not a paper experiment), plain and with a fresh registry
// observing each run: the gap between the two is what observation adds
// to the run it measures.
func BenchmarkObserveOverhead(b *testing.B) {
	prog := algos.Sort(1024, workload.KeyFunc(31, 1024, 1024))
	sims := []struct {
		name string
		run  func(o *obs.Observer) error
	}{
		{"hmmsim", func(o *obs.Observer) error {
			_, err := hmmsim.Simulate(prog, alphaHalf, &hmmsim.Options{Obs: o})
			return err
		}},
		{"btsim", func(o *obs.Observer) error {
			_, err := btsim.Simulate(prog, alphaHalf, &btsim.Options{Obs: o})
			return err
		}},
	}
	for _, sim := range sims {
		for _, observed := range []bool{false, true} {
			name := sim.name + "/plain"
			if observed {
				name = sim.name + "/observed"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var o *obs.Observer
					if observed {
						o = obs.New(obs.NewRegistry(), nil)
					}
					if err := sim.run(o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
