// Package smooth implements the L-smoothing machinery of Definition 3:
// rewriting an arbitrary D-BSP program into a functionally equivalent
// one whose superstep labels all lie in a chosen set
// L = {0 = l0 < l1 < ... < lm = log v} and whose labels coarsen at most
// one L-level at a time. The sequential simulators of Sections 3 and 5
// require L-smooth input; the label sets are chosen so that the
// smoothing adds only a constant-factor overhead to the simulation
// time (Theorem 5's and Theorem 12's analyses).
package smooth

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cost"
	"repro/internal/dbsp"
)

// Smooth rewrites prog into an L-smooth equivalent over the sorted
// label set labels (which must start at 0 and end at log v):
//
//  1. every i-superstep is upgraded to an l-superstep, l being the
//     largest label in L not greater than i (bundling supersteps of
//     nearby labels), and
//  2. dummy supersteps with the intermediate missing labels are
//     inserted wherever the label would otherwise drop by more than
//     one L-level.
//
// Handlers are shared with the original program; the rewrite never
// changes what a processor computes or whom it may message (labels only
// decrease, and an i-legal message is legal in any coarser cluster).
// from[s] is the index in prog of the superstep that output step s
// runs, or, for a dummy, of the superstep it was inserted before, so a
// simulator can name a failing step as the engine does.
func Smooth(prog *dbsp.Program, labels []int) (out *dbsp.Program, from []int, err error) {
	if err := ValidateLabels(labels, prog.LogV()); err != nil {
		return nil, nil, fmt.Errorf("smooth: program %q: %w", prog.Name, err)
	}
	// downgrade[i] = index in L of the largest label <= i.
	downgrade := make([]int, prog.LogV()+1)
	k := 0
	for i := 0; i <= prog.LogV(); i++ {
		if k+1 < len(labels) && labels[k+1] <= i {
			k++
		}
		downgrade[i] = k
	}

	// Size the output once: every superstep, plus the dummies before
	// each one that descends more than one L-level.
	n, prev := len(prog.Steps), -1 // prev: L-index of the previous superstep
	for _, st := range prog.Steps {
		n += max(0, prev-1-downgrade[st.Label])
		prev = downgrade[st.Label]
	}
	out = &dbsp.Program{
		Name:   prog.Name + "+smooth",
		V:      prog.V,
		Layout: prog.Layout,
		Init:   prog.Init,
		Steps:  make([]dbsp.Superstep, 0, n),
	}
	from = make([]int, 0, n)
	prev = -1
	for i, st := range prog.Steps {
		cur := downgrade[st.Label]
		// Insert dummies to descend one L-level at a time.
		for d := prev - 1; d > cur; d-- {
			out.Steps = append(out.Steps, dbsp.Superstep{Label: labels[d], Run: nil})
			from = append(from, i)
		}
		out.Steps = append(out.Steps, dbsp.Superstep{Label: labels[cur], Run: st.Run, Transpose: st.Transpose})
		from = append(from, i)
		prev = cur
	}
	if !out.IsSmooth(labels) {
		return nil, nil, fmt.Errorf("smooth: internal error: output of Smooth is not L-smooth")
	}
	return out, from, nil
}

// ValidateLabels checks that labels is strictly increasing, starts at 0
// and ends at logV, as Definition 3 requires.
func ValidateLabels(labels []int, logV int) error {
	if len(labels) == 0 {
		return fmt.Errorf("empty label set")
	}
	if labels[0] != 0 {
		return fmt.Errorf("label set must start at 0, got %d", labels[0])
	}
	if labels[len(labels)-1] != logV {
		return fmt.Errorf("label set must end at log v = %d, got %d", logV, labels[len(labels)-1])
	}
	for i := 1; i < len(labels); i++ {
		if labels[i] <= labels[i-1] {
			return fmt.Errorf("label set not strictly increasing at index %d", i)
		}
	}
	return nil
}

// LabelsHMM constructs the label set of Theorem 5's analysis for an
// f(x)-HMM host: starting from l0 = 0, each next label is the first one
// whose cluster memory µ·v/2^l drops the access cost by the factor c2,
// i.e. f(µ·v/2^{l_{i+1}}) <= c2·f(µ·v/2^{l_i}); the set ends at log v.
// Because f is (2,c)-uniform the costs of consecutive levels are also
// bounded below by c1 = c2/c times the previous one, which is what
// bounds the dummy-superstep overhead. c2 must lie in (0, 1); the
// paper's construction works for any such constant, 0.5 is a sound
// default.
func LabelsHMM(f cost.Func, mu, v int, c2 float64) []int {
	if c2 <= 0 || c2 >= 1 {
		panic(fmt.Sprintf("smooth: c2=%g outside (0,1)", c2))
	}
	logv := dbsp.Log2(v)
	labels := []int{0}
	cur := 0
	for cur < logv {
		curCost := f.Cost(int64(mu) * int64(v>>uint(cur)))
		next := -1
		for l := cur + 1; l <= logv; l++ {
			if f.Cost(int64(mu)*int64(v>>uint(l))) <= c2*curCost {
				next = l
				break
			}
		}
		if next == -1 {
			next = logv
		}
		labels = append(labels, next)
		cur = next
	}
	return labels
}

// LabelsBT constructs the label set of Section 5.2.2 for an f(x)-BT
// host with f(x) = O(x^α): labels are geometric in the log domain —
// log(d1·µ·v/2^{l_{i+1}}) ≈ c2·log(d1·µ·v/2^{l_i}) with α < c2 < 1 —
// subject to the pipelining constraint (c): the next cluster memory
// must still dominate the current access cost,
// f(µ·v/2^{l_i}) <= d2·µ·v/2^{l_{i+1}}. alpha is the exponent bound on
// f; c2 defaults to (1+alpha)/2 when passed as 0.
func LabelsBT(f cost.Func, mu, v int, alpha, c2 float64) []int {
	if c2 == 0 {
		c2 = (1 + alpha) / 2
	}
	if c2 <= alpha || c2 >= 1 {
		panic(fmt.Sprintf("smooth: c2=%g outside (alpha=%g, 1)", c2, alpha))
	}
	const d1 = 2.0
	logv := dbsp.Log2(v)
	labels := []int{0}
	cur := 0
	for cur < logv {
		curMem := float64(mu) * float64(int64(v)>>uint(cur))
		curLog := math.Log2(d1 * curMem)
		next := -1
		for l := cur + 1; l <= logv; l++ {
			mem := float64(mu) * float64(int64(v)>>uint(l))
			if math.Log2(d1*mem) <= c2*curLog {
				next = l
				break
			}
		}
		if next == -1 {
			next = logv
		} else {
			// Constraint (c): back the label off until the next
			// cluster memory is at least the current access cost, so a
			// single block transfer amortises the access.
			for next > cur+1 {
				mem := float64(mu) * float64(int64(v)>>uint(next))
				if f.Cost(int64(curMem)) <= d1*mem {
					break
				}
				next--
			}
		}
		labels = append(labels, next)
		cur = next
	}
	return labels
}

// Identity returns the full label set {0, 1, ..., logV}: smoothing over
// it only inserts dummies (never bundles labels). Used by the smoothing
// ablation (experiment E14).
func Identity(logV int) []int {
	out := make([]int, logV+1)
	for i := range out {
		out[i] = i
	}
	return out
}

// FromProgram returns a valid label set containing every label the
// program uses plus the mandatory endpoints 0 and log v.
func FromProgram(prog *dbsp.Program) []int {
	seen := map[int]bool{0: true, prog.LogV(): true}
	for _, st := range prog.Steps {
		seen[st.Label] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
