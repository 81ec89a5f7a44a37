// Package invariant is the debug-mode runtime counterpart of the
// static checks in internal/lint: a per-superstep checker for the
// simulation invariants the paper's schemes rely on. Wired into a run
// through dbsp.RunShardedInspected, it validates after every
// superstep's delivery that
//
//   - the delivered message multiset equals the sent multiset
//     (delivery conserves messages — nothing dropped, duplicated or
//     rewritten);
//   - every message stays inside the sender's label-i cluster, the
//     submachine-locality discipline of paper Section 2 that all three
//     simulation schemes assume;
//   - a Superstep.Transpose declaration matches the traffic the
//     handlers actually produced: M1·M2 equals the cluster size, every
//     processor sends exactly one message, and each destination is the
//     declared rational permutation. The BT simulator routes declared
//     transposes with block riffles instead of sorting, so a wrong
//     declaration silently corrupts its guest state — this check
//     catches it at the source.
//
// Violations are recorded (capped) and, when an observer is attached,
// emitted as structured "violation" trace events through internal/obs.
//
// The split with the static side: dbsplint's stepshape analyzer proves
// at lint time whatever a Program literal makes constant — label
// ranges, the final barrier, power-of-two V, declared TransposeRoute
// factorizations — while this package checks the properties only an
// execution reveals: the traffic the handlers actually produced, its
// conservation through delivery, and its confinement to the clusters
// the labels promise.
package invariant

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/obs"
)

// maxViolations bounds how many violations a Checker records; a broken
// program can violate every superstep and the point is diagnosis, not
// an unbounded log.
const maxViolations = 64

// Violation is one detected invariant breach.
type Violation struct {
	// Step and Label identify the superstep.
	Step, Label int
	// Kind is "delivery", "cluster" or "transpose".
	Kind string
	// Msg describes the breach.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("superstep %d (label %d): %s: %s", v.Step, v.Label, v.Kind, v.Msg)
}

// Checker accumulates violations over a run. Pass its Inspect method
// to dbsp.RunShardedInspected. A Checker is not safe for concurrent
// use; the engine calls Inspect sequentially between supersteps.
type Checker struct {
	v          int
	o          *obs.Observer
	truncated  int64
	violations []Violation
}

// NewChecker returns a checker for a v-processor machine. The observer
// may be nil; when set, every violation is also emitted as a trace
// event (Sim "invariant", Kind "violation").
func NewChecker(v int, o *obs.Observer) *Checker {
	return &Checker{v: v, o: o}
}

// Violations returns the recorded breaches in detection order.
func (c *Checker) Violations() []Violation { return c.violations }

// Truncated returns how many violations were detected beyond the
// recording cap.
func (c *Checker) Truncated() int64 { return c.truncated }

// Err returns nil when the run was clean and a summarising error
// otherwise.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("invariant: %d violation(s), first: %s",
		int64(len(c.violations))+c.truncated, c.violations[0])
}

// Inspect validates one executed superstep. It is the
// dbsp.RunShardedInspected inspector.
func (c *Checker) Inspect(e dbsp.StepEvent) {
	c.checkDelivery(e)
	c.checkClusters(e)
	if e.Transpose != nil {
		c.checkTranspose(e)
	}
}

func (c *Checker) report(e dbsp.StepEvent, kind, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	c.o.Emit(obs.Event{Sim: "invariant", Kind: "violation",
		Step: e.Step, Label: e.Label, Phase: kind, Detail: msg})
	c.o.Counter("invariant.violations").Inc()
	if len(c.violations) >= maxViolations {
		c.truncated++
		return
	}
	c.violations = append(c.violations, Violation{
		Step: e.Step, Label: e.Label, Kind: kind, Msg: msg})
}

// checkDelivery compares the sent and received multisets.
func (c *Checker) checkDelivery(e dbsp.StepEvent) {
	if len(e.Sent) != len(e.Received) {
		c.report(e, "delivery", "sent %d messages, delivered %d", len(e.Sent), len(e.Received))
		return
	}
	sent := sortedMessages(e.Sent)
	recv := sortedMessages(e.Received)
	for i := range sent {
		if sent[i] != recv[i] {
			c.report(e, "delivery",
				"delivered multiset differs from sent multiset (first mismatch: sent %+v, delivered %+v)",
				sent[i], recv[i])
			return
		}
	}
}

// checkClusters verifies the submachine-locality discipline: a label-i
// superstep's messages stay within i-clusters.
func (c *Checker) checkClusters(e dbsp.StepEvent) {
	for _, m := range e.Sent {
		if !dbsp.SameCluster(c.v, e.Label, m.Src, m.Dest) {
			c.report(e, "cluster",
				"message %d -> %d leaves the sender's %d-cluster (cluster size %d)",
				m.Src, m.Dest, e.Label, dbsp.ClusterSize(c.v, e.Label))
			return
		}
	}
}

// checkTranspose verifies a TransposeRoute declaration against the
// actual traffic — the runtime analogue of the engine's own check,
// kept independent so -check still works when the engine verification
// is bypassed.
func (c *Checker) checkTranspose(e dbsp.StepEvent) {
	tr := e.Transpose
	cs := dbsp.ClusterSize(c.v, e.Label)
	if tr.M1 < 1 || tr.M2 < 1 || tr.M1*tr.M2 != cs {
		c.report(e, "transpose",
			"declaration %dx%d does not match cluster size %d", tr.M1, tr.M2, cs)
		return
	}
	perProc := make([]int, c.v)
	for _, m := range e.Sent {
		if m.Src < 0 || m.Src >= c.v {
			c.report(e, "transpose", "message from out-of-range processor %d", m.Src)
			return
		}
		perProc[m.Src]++
		lo := (m.Src / cs) * cs
		if want := lo + tr.Dest(m.Src-lo); m.Dest != want {
			c.report(e, "transpose",
				"processor %d sent to %d, declared transpose destination is %d",
				m.Src, m.Dest, want)
			return
		}
	}
	for p, n := range perProc {
		if n != 1 {
			c.report(e, "transpose", "processor %d sent %d messages, want exactly 1", p, n)
			return
		}
	}
}

// sortedMessages returns a copy sorted by (Src, Dest, Payload), the
// canonical order for multiset comparison.
func sortedMessages(msgs []dbsp.MessageTrace) []dbsp.MessageTrace {
	out := append([]dbsp.MessageTrace(nil), msgs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dest != b.Dest {
			return a.Dest < b.Dest
		}
		return a.Payload < b.Payload
	})
	return out
}

// Run executes prog at the given shard count (<= 0 selects the engine
// default) with the checker attached and returns the run outputs
// together with the checker. The run itself succeeding does not imply
// the invariants held — consult Checker.Err.
func Run(prog *dbsp.Program, g cost.Func, shards int, o *obs.Observer) (*dbsp.Result, *dbsp.Trace, *Checker, error) {
	c := NewChecker(prog.V, o)
	res, tr, err := dbsp.RunShardedInspected(prog, g, shards, o, c.Inspect)
	return res, tr, c, err
}
