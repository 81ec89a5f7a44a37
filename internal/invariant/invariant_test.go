package invariant

import (
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dbsp"
	"repro/internal/obs"
)

// transposeProg builds a v-processor program whose single
// communication superstep routes an m1×m2 transpose while declaring
// declM1×declM2 — matching pairs give a clean program, mismatched
// pairs a corrupted declaration.
func transposeProg(v, m1, m2, declM1, declM2 int) *dbsp.Program {
	return &dbsp.Program{
		Name:   "transpose-test",
		V:      v,
		Layout: dbsp.Layout{Data: 1, MaxMsgs: 1},
		Init:   func(p int, data []dbsp.Word) { data[0] = dbsp.Word(p) },
		Steps: []dbsp.Superstep{
			{
				Label:     0,
				Transpose: &dbsp.TransposeRoute{M1: declM1, M2: declM2},
				Run: func(c *dbsp.Ctx) {
					j := c.ID()
					j1, j2 := j/m2, j%m2
					c.Send(j2*m1+j1, c.Load(0))
				},
			},
			{Label: 0, Run: func(c *dbsp.Ctx) {}},
		},
	}
}

func TestCleanTransposeRun(t *testing.T) {
	prog := transposeProg(8, 2, 4, 2, 4)
	ring := obs.NewRingSink(64)
	o := obs.New(obs.NewRegistry(), ring)

	res, tr, c, err := Run(prog, cost.Log{}, 0, o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("clean program reported violations: %v", err)
	}
	if len(c.Violations()) != 0 {
		t.Errorf("violations = %v, want none", c.Violations())
	}
	if res == nil || tr == nil || tr.Messages() != 8 {
		t.Errorf("run outputs missing or wrong: %v messages", tr.Messages())
	}
	for _, e := range ring.Events() {
		if e.Sim == "invariant" {
			t.Errorf("unexpected invariant event: %+v", e)
		}
	}
}

// TestCorruptedTransposeCaught is the acceptance test for the runtime
// checker: a deliberately wrong TransposeRoute declaration (the
// handlers route 2×4 but the superstep declares 4×2) must surface as a
// "transpose" violation. The plain engine would abort the run on the
// same program; the inspected run bypasses that so the checker observes
// the corruption end-to-end.
func TestCorruptedTransposeCaught(t *testing.T) {
	prog := transposeProg(8, 2, 4, 4, 2)

	if _, err := dbsp.Run(prog, cost.Log{}); err == nil {
		t.Fatal("plain engine accepted the corrupted declaration")
	}

	ring := obs.NewRingSink(64)
	o := obs.New(obs.NewRegistry(), ring)
	_, _, c, err := Run(prog, cost.Log{}, 0, o)
	if err != nil {
		t.Fatalf("inspected run aborted instead of recording the violation: %v", err)
	}
	if c.Err() == nil {
		t.Fatal("checker missed the corrupted TransposeRoute")
	}
	found := false
	for _, v := range c.Violations() {
		if v.Kind == "transpose" {
			found = true
			if !strings.Contains(v.Msg, "declared transpose destination") {
				t.Errorf("unexpected transpose message: %q", v.Msg)
			}
		}
	}
	if !found {
		t.Errorf("no transpose violation in %v", c.Violations())
	}

	var events int
	for _, e := range ring.Events() {
		if e.Sim == "invariant" && e.Kind == "violation" && e.Phase == "transpose" {
			events++
		}
	}
	if events == 0 {
		t.Error("no invariant/violation trace event emitted")
	}
}

func TestCorruptedTransposeShape(t *testing.T) {
	// Declaration whose dimensions do not multiply to the cluster size.
	prog := transposeProg(8, 2, 4, 3, 2)
	_, _, c, err := Run(prog, cost.Log{}, 0, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	vs := c.Violations()
	if len(vs) == 0 || vs[0].Kind != "transpose" ||
		!strings.Contains(vs[0].Msg, "cluster size") {
		t.Errorf("violations = %v, want a transpose shape violation", vs)
	}
}

func TestDeliveryMismatchDetected(t *testing.T) {
	c := NewChecker(4, nil)
	sent := []dbsp.MessageTrace{{Src: 0, Dest: 1, Payload: 7}}

	// Dropped message.
	c.Inspect(dbsp.StepEvent{Step: 0, Label: 0, Sent: sent})
	// Rewritten payload.
	c.Inspect(dbsp.StepEvent{Step: 1, Label: 0, Sent: sent,
		Received: []dbsp.MessageTrace{{Src: 0, Dest: 1, Payload: 8}}})

	vs := c.Violations()
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want 2", vs)
	}
	for i, v := range vs {
		if v.Kind != "delivery" || v.Step != i {
			t.Errorf("violation %d = %+v, want delivery at step %d", i, v, i)
		}
	}
}

func TestClusterDisciplineDetected(t *testing.T) {
	c := NewChecker(4, nil)
	// v=4, label 1: clusters are {0,1} and {2,3}; 0 -> 3 crosses.
	msgs := []dbsp.MessageTrace{{Src: 0, Dest: 3, Payload: 1}}
	c.Inspect(dbsp.StepEvent{Step: 2, Label: 1, Sent: msgs, Received: msgs})

	vs := c.Violations()
	if len(vs) != 1 || vs[0].Kind != "cluster" {
		t.Fatalf("violations = %v, want one cluster violation", vs)
	}
}

func TestViolationCap(t *testing.T) {
	c := NewChecker(4, nil)
	for i := 0; i < maxViolations+10; i++ {
		c.Inspect(dbsp.StepEvent{Step: i, Label: 0,
			Sent: []dbsp.MessageTrace{{Src: 0, Dest: 1, Payload: 1}}})
	}
	if len(c.Violations()) != maxViolations {
		t.Errorf("recorded %d violations, want cap %d", len(c.Violations()), maxViolations)
	}
	if c.Truncated() != 10 {
		t.Errorf("truncated = %d, want 10", c.Truncated())
	}
}
