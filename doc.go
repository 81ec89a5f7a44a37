// Package repro is a full Go reproduction of Fantozzi, Pietracaprina
// and Pucci, "Translating Submachine Locality into Locality of
// Reference" (IPDPS 2004, Best Paper — Algorithms Track).
//
// The library builds, from scratch, the three machine models the paper
// relates — the Decomposable BSP (internal/dbsp, executed natively by
// one engine that multiplexes the v processors over a few shards), the
// Hierarchical Memory Model (internal/hmm) and its block-transfer
// extension (internal/bt) — and the paper's three simulation schemes
// on top of them (internal/core and its subpackages):
//
//	D-BSP -> HMM     Theorem 5 / Corollary 6: linear slowdown
//	D-BSP -> BT      Theorem 12: access-function independence
//	D-BSP -> D-BSP   Theorem 10 / Corollary 11: the Brent analogue
//
// See README.md for a guide, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the measured-vs-predicted reproduction of every
// quantitative claim. The benchmarks in bench_test.go regenerate the
// experiment measurements under `go test -bench`.
package repro
