package dbsp

import (
	"fmt"
	"sort"
)

// Superstep is one labelled superstep of a D-BSP program. In a
// superstep with Label = i, every processor executes Run on its own
// context and may send messages within its i-cluster; a barrier
// synchronises each i-cluster at the end.
type Superstep struct {
	// Label is the cluster granularity i, 0 <= i <= log v. Label 0 is
	// the whole machine; label log v is a single processor.
	Label int
	// Run is the per-processor handler. A nil Run denotes a dummy
	// superstep (inserted by smoothing): no computation, no messages,
	// but it still participates in the simulators' cluster schedule.
	Run func(c *Ctx)
	// Transpose, when non-nil, declares that this superstep's
	// communication pattern is exactly a cluster-wide transpose (a
	// rational permutation): see TransposeRoute. The declaration is
	// metadata — handlers still Send normally — but it lets the BT
	// simulator route messages with block-transfer riffles instead of
	// sorting (the improved simulation of the paper's Section 6
	// remark). The engine verifies the declaration.
	Transpose *TransposeRoute
}

// TransposeRoute declares a superstep's communication as the matrix
// transpose of its clusters: with M1·M2 = cluster size, the processor
// at cluster-relative position j1·M2 + j2 sends exactly one message to
// relative position j2·M1 + j1. Transposes are rational permutations —
// permutations of the address bits — which the BT machine can route in
// O(m·log m) time without sorting.
type TransposeRoute struct {
	// M1 and M2 are the matrix dimensions; M1·M2 must equal the
	// superstep's cluster size.
	M1, M2 int
}

// Dest returns the cluster-relative destination of relative position j.
func (t *TransposeRoute) Dest(j int) int {
	j1, j2 := j/t.M2, j%t.M2
	return j2*t.M1 + j1
}

// Program is a D-BSP program: a machine size, a context layout, an
// optional initial data distribution and a sequence of supersteps.
type Program struct {
	// Name identifies the program in experiment tables.
	Name string
	// V is the number of processors (a power of two).
	V int
	// Layout fixes the context memory layout; Mu() is the µ of the
	// D-BSP(v, µ, g) machine this program runs on.
	Layout Layout
	// Steps is the superstep sequence. The simulation schemes require
	// the last superstep to be a 0-superstep (a global barrier), the
	// standard assumption of paper Section 2.
	Steps []Superstep
	// Init, when non-nil, fills processor p's data region before the
	// first superstep. The input distribution is given, not charged.
	Init func(p int, data []Word)
}

// Mu returns the context size in words.
func (pr *Program) Mu() int { return pr.Layout.Mu() }

// LogV returns log2(V).
func (pr *Program) LogV() int { return Log2(pr.V) }

// Validate checks machine size, layout and superstep labels.
func (pr *Program) Validate() error {
	if pr.V < 1 || pr.V&(pr.V-1) != 0 {
		return fmt.Errorf("dbsp: program %q: V=%d not a positive power of two", pr.Name, pr.V)
	}
	if err := pr.Layout.Validate(); err != nil {
		return fmt.Errorf("dbsp: program %q: %w", pr.Name, err)
	}
	logv := pr.LogV()
	for s, st := range pr.Steps {
		if st.Label < 0 || st.Label > logv {
			return fmt.Errorf("dbsp: program %q: superstep %d has label %d outside [0,%d]",
				pr.Name, s, st.Label, logv)
		}
	}
	return nil
}

// EndsGlobal reports whether the last superstep is a 0-superstep, the
// precondition of the simulation schemes ("it is reasonable to assume
// that any D-BSP computation ends with a global synchronization").
func (pr *Program) EndsGlobal() bool {
	return len(pr.Steps) > 0 && pr.Steps[len(pr.Steps)-1].Label == 0
}

// Labels returns the sorted set of distinct labels used by the program.
func (pr *Program) Labels() []int {
	seen := make(map[int]bool)
	for _, st := range pr.Steps {
		seen[st.Label] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// IsSmooth reports whether the program is L-smooth (Definition 3) with
// respect to the given sorted label set L = {l0 < l1 < ... < lm}:
// every superstep label belongs to L, and a superstep of label l_i
// directly following one of label l_j > l_i has i = j-1 (clusters
// coarsen one L-level at a time).
func (pr *Program) IsSmooth(labels []int) bool {
	idx := make(map[int]int, len(labels))
	for k, l := range labels {
		idx[l] = k
	}
	prev := -1 // index in L of the previous superstep's label
	for _, st := range pr.Steps {
		k, ok := idx[st.Label]
		if !ok {
			return false
		}
		if prev >= 0 && k < prev && k != prev-1 {
			return false
		}
		prev = k
	}
	return true
}

// Lambda returns λ_i, the number of supersteps with label i, indexed by
// label (length log v + 1). Dummy supersteps are counted — pass
// real=true to count only supersteps with a non-nil handler.
func (pr *Program) Lambda(realOnly bool) []int {
	lam := make([]int, pr.LogV()+1)
	for _, st := range pr.Steps {
		if realOnly && st.Run == nil {
			continue
		}
		lam[st.Label]++
	}
	return lam
}
