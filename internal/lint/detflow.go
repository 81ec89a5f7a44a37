package lint

// DetFlow is the determinism vet (DESIGN §12). It follows the value:
// a taint fact born at a wall-clock read, a global math/rand draw, a
// map range, or a multi-case select is propagated through assignments,
// expressions, and module call summaries (parameter→result and
// parameter→sink flow, results carrying callee-internal sources), and
// reported only when it reaches a determinism sink — printed or
// byte-stream output (the JSONL records golden files pin), dbsp
// message sends, error strings, or a float64 cost accumulation.
//
// Sanctioned laundering is recognized: sorting a collected key slice
// kills its order taint (the collect-then-sort idiom), seeded
// rand.New(rand.NewSource(...)) generators are never tainted in the
// first place (only the global convenience functions are sources),
// and a //lint:ignore detflow directive on a *source* line suppresses
// every caller-side finding that source would induce — which is how a
// callee certifies "this clock read never reaches output" once,
// instead of each caller annotating its sink.
var DetFlow = &Analyzer{
	Name:  "detflow",
	Doc:   "no nondeterminism source (clock, global rand, map/select order) may flow into sweep output, dbsp sends, error strings, or charged costs",
	Layer: LayerInterproc,
	Run:   runDetFlow,
}

// runDetFlow replays the findings the shared bottom-up pass computed
// for this package. The heavy lifting happens once per lint.Run in
// Pass.Interproc; each per-package Run is a lookup.
func runDetFlow(pass *Pass) {
	if pass.Pkg.Info == nil {
		return
	}
	for _, f := range pass.Interproc().det[pass.Pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}
