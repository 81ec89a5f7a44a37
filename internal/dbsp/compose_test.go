package dbsp

import (
	"testing"

	"repro/internal/cost"
)

func incProg(v int, by Word) *Program {
	return &Program{
		Name:   "inc",
		V:      v,
		Layout: Layout{Data: 1, MaxMsgs: 1},
		Init:   func(p int, data []Word) { data[0] = Word(p) },
		Steps: []Superstep{
			{Label: Log2(v), Run: func(c *Ctx) { c.Store(0, c.Load(0)+by) }},
			{Label: 0, Run: func(c *Ctx) {}},
		},
	}
}

func TestConcat(t *testing.T) {
	a := incProg(8, 1)
	b := incProg(8, 10) // its Init is dropped; it operates on a's output
	chained, err := Concat("chain", a, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(chained, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if got := res.Contexts[p][0]; got != Word(p+11) {
			t.Errorf("proc %d = %d, want %d", p, got, p+11)
		}
	}
	if !chained.EndsGlobal() {
		t.Error("chained program lost its global ending")
	}
}

func TestConcatRejectsMismatch(t *testing.T) {
	if _, err := Concat("none"); err == nil {
		t.Error("empty Concat accepted")
	}
	if _, err := Concat("vs", incProg(8, 1), incProg(16, 1)); err == nil {
		t.Error("V mismatch accepted")
	}
	other := incProg(8, 1)
	other.Layout = Layout{Data: 2, MaxMsgs: 1}
	if _, err := Concat("layouts", incProg(8, 1), other); err == nil {
		t.Error("layout mismatch accepted")
	}
}

func TestRepeat(t *testing.T) {
	prog, err := Repeat("thrice", incProg(4, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, cost.Log{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if got := res.Contexts[p][0]; got != Word(p+15) {
			t.Errorf("proc %d = %d, want %d", p, got, p+15)
		}
	}
	if _, err := Repeat("zero", incProg(4, 1), 0); err == nil {
		t.Error("Repeat(0) accepted")
	}
}
