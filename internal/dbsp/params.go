// Package dbsp implements the Decomposable Bulk Synchronous Parallel
// model of De la Torre and Kruskal (paper reference [19]): a collection
// of v = 2^k processors with µ words of local memory each, communicating
// through a router with bandwidth function g(x), and partitioned at
// every level 0 <= i <= log v into 2^i independent i-clusters forming a
// binary decomposition tree.
//
// A D-BSP program is a sequence of labelled supersteps. In an
// i-superstep each processor computes locally and sends messages only
// within its i-cluster; the superstep costs τ + h·g(µ·v/2^i), where τ
// is the maximum local computation time and the messages form an
// h-relation (paper Section 2).
//
// The package provides the machine description, the superstep program
// representation, the processor-context layout and the handler context
// (Ctx, over an engine slice or a window of a simulator's host
// internal/hmm machine) shared with the sequential simulators, and one
// execution engine that multiplexes the v processors over a few shards
// — one goroutine per shard per phase, a barrier at each phase
// boundary — so that, as the paper's Theorem 10 has it, v processors
// run on far fewer physical ones.
package dbsp

import (
	"fmt"
	"math/bits"

	"repro/internal/cost"
)

// Word is the unit of D-BSP local storage, matching the HMM word.
type Word = int64

// Params describes a D-BSP(v, µ, g(x)) machine. Mu is determined by the
// program's context layout, so Params carries V and G.
type Params struct {
	// V is the number of processors; it must be a power of two >= 1.
	V int
	// G is the router bandwidth function g(x): the cost per message of
	// an h-relation within a cluster of aggregate memory x.
	G cost.Func
}

// Validate checks that V is a positive power of two and G is non-nil.
func (p Params) Validate() error {
	if p.V < 1 || p.V&(p.V-1) != 0 {
		return fmt.Errorf("dbsp: V=%d is not a positive power of two", p.V)
	}
	if p.G == nil {
		return fmt.Errorf("dbsp: nil bandwidth function")
	}
	return nil
}

// LogV returns log2(V).
func (p Params) LogV() int { return bits.Len(uint(p.V)) - 1 }

// Log2 returns log2(v) for a power of two v.
func Log2(v int) int { return bits.Len(uint(v)) - 1 }

// ClusterSize returns the number of processors in an i-cluster of a
// v-processor machine: v / 2^i.
func ClusterSize(v, label int) int { return v >> uint(label) }

// ClusterIndex returns j such that processor p belongs to i-cluster
// C^(i)_j: the clusters partition processors into contiguous runs of
// v/2^i, consistent with the binary decomposition tree
// C^(i)_j = C^(i+1)_{2j} ∪ C^(i+1)_{2j+1}.
//
// ClusterIndex and SameCluster replace the division by v/2^i with a
// shift and an xor, which is exact when v is a power of two,
// 0 <= label <= log v and p, q >= 0. Their callers guarantee it:
// Program.Validate holds v and every superstep label to it, Ctx.Send
// range-checks dest before its cluster test, LocalityLevel and the
// invariant checker's cluster test take message endpoints the engine
// produced, and progtest's rotate handler passes its own id.
func ClusterIndex(v, label, p int) int { return p >> uint(Log2(v)-label) }

// ClusterRange returns the processor interval [lo, hi) of i-cluster j.
func ClusterRange(v, label, j int) (lo, hi int) {
	size := ClusterSize(v, label)
	return j * size, (j + 1) * size
}

// SameCluster reports whether processors p and q lie in the same
// i-cluster: whether they agree on every bit above the cluster size's,
// under ClusterIndex's precondition.
func SameCluster(v, label, p, q int) bool {
	return p^q < ClusterSize(v, label)
}

// CommCost returns the charge per message of an h-relation executed in
// an i-superstep: g(µ·v/2^i), the cost of a "remote access outside the
// aggregate memory of an i-cluster" (paper Section 2).
func CommCost(g cost.Func, mu, v, label int) float64 {
	return g.Cost(int64(mu) * int64(ClusterSize(v, label)))
}
