// Package obs is the unified observability layer of the reproduction:
// a metrics registry, a structured event-tracing API with pluggable
// sinks, and the per-phase/per-level cost report the CLIs print.
//
// Every claim of the paper is a counted quantity — Theorem 5's
// O(v·(τ + µ·Σ_i λ_i·f(µv/2^i))) HMM cost, Theorem 12's f-independent
// BT cost, Corollary 11's Θ(v/v′) self-simulation slowdown — and the
// simulators charge those counts mechanically. This package gives them
// one shared way to break the charges down, export them, and compare
// runs, instead of each simulator keeping ad-hoc tallies.
//
// # Design
//
// The registry hands out four metric kinds: Counter (atomic int64),
// FloatCounter (atomic float64 sum — model cost is fractional),
// Gauge (last value wins) and Histogram (power-of-two buckets, the
// natural shape for memory-level and block-size distributions; the
// bucket of a value is its bit-length, matching hmm.Stats.Depth).
//
// Tracing emits fixed-shape Event records into a Sink: RingSink keeps
// the last N in memory, JSONLSink streams them as JSON lines, SinkFunc
// adapts a function, MultiSink fans out, NopSink discards.
//
// Instrumented code holds a possibly-nil *Observer. Every Observer and
// metric method no-ops on nil receivers, so the disabled path costs a
// nil check per instrumentation point — no branches on configuration,
// no allocation, no locks. Hot loops resolve their metrics once up
// front (Registry lookups are create-on-first-use and stable) and then
// touch only atomics.
//
// A Ledger is the one charging path for model cost: every engine (the
// D-BSP engine and the three simulators) takes one from
// Observer.Ledger and reports each phase boundary with
// Charge(frame, phase, delta), which adds the delta to
// <sim>.cost.<phase> and, with a Profile attached, to the folded stack
// <sim>;<frame>;<phase> (frame is LabelFrame(l) for a superstep of
// label l). Total copies the returned cost into <sim>.cost.total. No
// engine resolves a cost counter or scopes a profile itself, so the
// counters and the stacks are one accounting.
//
// # Metric names
//
// Components prefix their metrics: "dbsp." (the D-BSP engine), "hmm."
// (Section 3 simulator), "bt." (Section 5 simulator), "self."
// (Section 4 self-simulation). Within a component:
//
//	<sim>.cost.<phase>        cost charged during <phase>; the
//	                          top-level phases partition the run
//	<sim>.cost.<phase>.<sub>  refinement of a phase (reported indented,
//	                          not double-counted into the total)
//	<sim>.cost.total          the host cost the simulator returned,
//	                          added verbatim — after a single run on a
//	                          fresh registry the total row equals
//	                          Result.HostCost exactly; across several
//	                          runs (cmd/experiments -metrics) totals
//	                          and phases aggregate consistently
//	<sim>.level.<k>.accesses  word accesses at memory level k
//	                          (addresses of bit-length k)
//	<sim>.level.<k>.cost      access cost charged at level k
//
// The machine-level metrics (reads, writes, level costs, memory size,
// and bt.blocks.*) are kept by the machines themselves while the run
// charges and published once after it (hmm.Machine.Observe,
// bt.Machine.Observe): no observer is called per access or per block
// transfer.
//
// # Attributing the paper's cost terms
//
// Theorem 5 (D-BSP -> HMM, O(v·(τ + µ·Σ_i λ_i·f(µv/2^i)))):
//
//	hmm.cost.compute   the v·τ term — handler work plus the context
//	                   accesses it performs at the top of memory
//	hmm.cost.deliver   the message-exchange part of each round
//	hmm.cost.swap      the Figure 2 sibling cycling — the
//	                   µ·Σ_i λ_i·f(µv/2^i) context-movement term
//	hmm.rounds.label.<i>  rounds executed at label i (the λ_i·2^i
//	                   cluster-steps the formula sums over)
//	hmm.level.<k>.cost where the f(µv/2^i) charges actually landed in
//	                   the hierarchy
//
// Theorem 12 (D-BSP -> BT, O(v·(τ + µ·Σ_i λ_i·log(µv/2^i)))):
//
//	bt.cost.pack / bt.cost.unpack  the Figure 4 buffer maintenance
//	bt.cost.compute                the Figure 6 COMPUTE recursion
//	                               (TM(n) = O(µ·n·c*(n)) overhead
//	                               plus the raw work)
//	bt.cost.deliver                message delivery, refined into
//	                               deliver.juggle/.extract/.sort/
//	                               .riffle/.merge
//	bt.cost.swap                   the Step 4 sibling swaps (three
//	                               block transfers each)
//	bt.blocks.words                histogram of block-transfer sizes,
//	                               loaded after the run from the
//	                               machine's size buckets with the
//	                               exact word total as its sum —
//	                               f-independence shows up as traffic
//	                               dominated by large transfers
//	bt.sort.comparisons            comparisons spent in the sorting
//	                               substrate (Approx-Median-Sort
//	                               stand-in)
//
// Theorem 10 / Corollary 11 (self-simulation, Θ(v/v′) slowdown):
//
//	self.cost.local    module time of label >= log v′ runs (each host
//	                   processor running the Section 3 scheduler)
//	self.cost.compute  module time of global supersteps' local work
//	self.cost.place    module time of inbox placement
//	self.cost.comm     the router term h·g(µv/2^i)
//
// cmd/dbsprun -metrics prints the Report for a D-BSP run plus all
// three simulations; -trace-out streams the event log as JSONL;
// -profile captures runtime/pprof CPU and heap profiles.
package obs
