package smooth

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/dbsp"
)

// progWithLabels builds a v-processor program with the given label
// sequence; handlers increment data word 0 so functional equivalence
// can be checked.
func progWithLabels(v int, labels ...int) *dbsp.Program {
	steps := make([]dbsp.Superstep, len(labels))
	for i, l := range labels {
		steps[i] = dbsp.Superstep{Label: l, Run: func(c *dbsp.Ctx) {
			c.Store(0, c.Load(0)+1)
		}}
	}
	return &dbsp.Program{
		Name:   "labelled",
		V:      v,
		Layout: dbsp.Layout{Data: 1, MaxMsgs: 1},
		Steps:  steps,
	}
}

func TestValidateLabels(t *testing.T) {
	if err := ValidateLabels([]int{0, 2, 4}, 4); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	bad := [][]int{
		{},           // empty
		{1, 4},       // doesn't start at 0
		{0, 3},       // doesn't end at log v
		{0, 2, 2, 4}, // not strictly increasing
	}
	for i, ls := range bad {
		if err := ValidateLabels(ls, 4); err == nil {
			t.Errorf("case %d: invalid set %v accepted", i, ls)
		}
	}
}

func TestSmoothUpgradesLabels(t *testing.T) {
	// L = {0, 2, 4}; labels 1 and 3 must be upgraded to 0 and 2.
	prog := progWithLabels(16, 3, 1, 0)
	out, _, err := Smooth(prog, []int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, st := range out.Steps {
		got = append(got, st.Label)
	}
	want := []int{2, 0, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("labels = %v, want %v", got, want)
	}
}

func TestSmoothInsertsDummies(t *testing.T) {
	// Sequence 4 then 0 over L = {0,1,2,3,4} needs dummies 3, 2, 1.
	prog := progWithLabels(16, 4, 0)
	out, _, err := Smooth(prog, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	var labels []int
	var dummies int
	for _, st := range out.Steps {
		labels = append(labels, st.Label)
		if st.Run == nil {
			dummies++
		}
	}
	want := []int{4, 3, 2, 1, 0}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("labels = %v, want %v", labels, want)
	}
	if dummies != 3 {
		t.Errorf("dummies = %d, want 3", dummies)
	}
	if !out.IsSmooth([]int{0, 1, 2, 3, 4}) {
		t.Error("output not smooth")
	}
}

func TestSmoothAscentNeedsNoDummies(t *testing.T) {
	prog := progWithLabels(16, 0, 4, 4, 0) // refine freely; one coarsening 4->0
	out, _, err := Smooth(prog, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) != 4 {
		t.Errorf("got %d steps, want 4 (0->4 ascent adds nothing, 4->0 is one L-step)", len(out.Steps))
	}
}

func TestSmoothPreservesSemantics(t *testing.T) {
	prog := progWithLabels(16, 4, 2, 3, 0)
	out, _, err := Smooth(prog, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := dbsp.Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := dbsp.Run(out, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	for p := range a.Contexts {
		if !reflect.DeepEqual(a.Contexts[p], b.Contexts[p]) {
			t.Fatalf("proc %d state diverged after smoothing", p)
		}
	}
}

func TestSmoothRejectsBadLabelSet(t *testing.T) {
	if _, _, err := Smooth(progWithLabels(16, 0), []int{0, 3}); err == nil {
		t.Error("label set not ending at log v accepted")
	}
}

func TestLabelsHMMGeometric(t *testing.T) {
	// f = x^0.5, c2 = 0.5: each level's cluster cost must drop by >= 2x,
	// i.e. cluster memory by >= 4x, so labels step by 2.
	labels := LabelsHMM(cost.Poly{Alpha: 0.5}, 1, 1<<10, 0.5)
	if err := ValidateLabels(labels, 10); err != nil {
		t.Fatalf("LabelsHMM produced invalid set %v: %v", labels, err)
	}
	f := cost.Poly{Alpha: 0.5}
	for i := 1; i < len(labels)-1; i++ {
		prev := f.Cost(int64(1 << (10 - labels[i-1])))
		cur := f.Cost(int64(1 << (10 - labels[i])))
		if cur > 0.5*prev+1e-9 {
			t.Errorf("level %d: cost %g > c2*prev %g", i, cur, 0.5*prev)
		}
	}
}

func TestLabelsHMMLogFunction(t *testing.T) {
	labels := LabelsHMM(cost.Log{}, 1, 1<<16, 0.5)
	if err := ValidateLabels(labels, 16); err != nil {
		t.Fatalf("invalid set %v: %v", labels, err)
	}
	// With f=log x the level memories must square-root-ish: the label
	// set should be small (O(log log v)).
	if len(labels) > 8 {
		t.Errorf("LabelsHMM(log) has %d levels %v, want few", len(labels), labels)
	}
}

func TestLabelsHMMConstFunction(t *testing.T) {
	// Constant f never drops by c2: the set collapses to {0, log v}.
	labels := LabelsHMM(cost.Const{C: 1}, 1, 256, 0.5)
	if !reflect.DeepEqual(labels, []int{0, 8}) {
		t.Errorf("LabelsHMM(const) = %v, want [0 8]", labels)
	}
}

func TestLabelsHMMPanicsOnBadC2(t *testing.T) {
	for _, c2 := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("c2=%g accepted", c2)
				}
			}()
			LabelsHMM(cost.Log{}, 1, 16, c2)
		}()
	}
}

func TestLabelsBT(t *testing.T) {
	f := cost.Poly{Alpha: 0.5}
	labels := LabelsBT(f, 1, 1<<16, 0.5, 0)
	if err := ValidateLabels(labels, 16); err != nil {
		t.Fatalf("LabelsBT invalid set %v: %v", labels, err)
	}
	// Levels must be geometric in the log domain: few levels.
	if len(labels) < 3 || len(labels) > 10 {
		t.Errorf("LabelsBT levels = %v: unexpected count", labels)
	}
	// Constraint (c): next cluster memory >= f(current memory)/d1.
	for i := 0; i+1 < len(labels); i++ {
		curMem := int64(1) << (16 - labels[i])
		nextMem := float64(int64(1) << (16 - labels[i+1]))
		if f.Cost(curMem) > 2*nextMem {
			t.Errorf("constraint (c) violated at level %d: f(%d)=%g > 2*%g",
				i, curMem, f.Cost(curMem), nextMem)
		}
	}
}

func TestLabelsBTPanicsOnBadC2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("c2 <= alpha accepted")
		}
	}()
	LabelsBT(cost.Poly{Alpha: 0.5}, 1, 16, 0.5, 0.4)
}

func TestIdentity(t *testing.T) {
	if got := Identity(3); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("Identity(3) = %v", got)
	}
}

func TestFromProgram(t *testing.T) {
	prog := progWithLabels(16, 2, 2, 0)
	got := FromProgram(prog)
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Errorf("FromProgram = %v, want [0 2 4]", got)
	}
}

// Property: Smooth output is always L-smooth and has at least as many
// supersteps as the input, and real (non-dummy) step count is preserved.
func TestSmoothProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		labels := make([]int, len(raw))
		for i, r := range raw {
			labels[i] = int(r % 5)
		}
		labels[len(labels)-1] = 0 // end global
		prog := progWithLabels(16, labels...)
		L := []int{0, 1, 2, 3, 4}
		out, from, err := Smooth(prog, L)
		if err != nil || len(from) != len(out.Steps) {
			return false
		}
		// Every input step runs once, in order, and from names it.
		real := 0
		for s, st := range out.Steps {
			if st.Run != nil {
				if from[s] != real {
					return false
				}
				real++
			}
		}
		return out.IsSmooth(L) && real == len(prog.Steps) && len(out.Steps) >= len(prog.Steps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
