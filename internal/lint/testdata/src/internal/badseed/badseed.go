// Package badseed is a lint fixture for detflow's nondeterminism
// sources: a wall-clock read, a global math/rand draw, and map
// iteration order are each flagged where they reach a sink (printed
// output, a dbsp message send), not where they are read.
package badseed

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"fixture.example/internal/dbsp"
)

// Stamp reads the wall clock. The directive on the read is missing its
// reason, so it is malformed (a finding) and suppresses nothing: the
// print in Report is flagged.
func Stamp() int64 {
	//lint:ignore detflow
	return time.Now().UnixNano()
}

// Draw uses the global shared source: flagged at the print in Report.
func Draw() int {
	return rand.Intn(10)
}

// DrawSeeded derives a private generator from an explicit seed: no
// finding.
func DrawSeeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10)
}

// Emit prints in map-iteration order: finding.
func Emit(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Fanout sends messages in map-iteration order: finding.
func Fanout(c *dbsp.Ctx, dests map[int]dbsp.Word) {
	for d, w := range dests {
		c.Send(d, w)
	}
}

// Keys returns map keys in randomized order: flagged at the print in
// Report.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SortedKeys is the collect-then-sort idiom: no finding.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Elapsed measures a duration under justified source-side exemptions:
// printing it draws no finding, and neither directive is stale.
func Elapsed(fn func()) time.Duration {
	begin := time.Now() //lint:ignore detflow duration measurement, reported as run-varying timing and never compared
	fn()
	return time.Since(begin) //lint:ignore detflow duration measurement, reported as run-varying timing and never compared
}

// Report is the caller where every source above reaches output.
func Report(m map[string]int, seed int64) {
	fmt.Println(Stamp())
	fmt.Println(Draw())
	fmt.Println(DrawSeeded(seed))
	fmt.Println(Keys(m))
	fmt.Println(SortedKeys(m))
	fmt.Println(Elapsed(func() {}))
}
