package dbsp

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/hmm"
)

// ctxTestLayout is the context layout of the Ctx tests: one data word
// and one message each way, so µ = 7.
var ctxTestLayout = Layout{Data: 1, MaxMsgs: 1}

// primedProgram is an 8-processor program whose superstep 0 has
// processor 0 send payload 9 to itself, and whose superstep 1, a
// 1-superstep (clusters of 4), runs fn on processor proc. Every data
// word starts at 3.
func primedProgram(proc int, fn func(*Ctx)) *Program {
	return &Program{
		Name: "ctx", V: 8, Layout: ctxTestLayout,
		Init: func(_ int, data []Word) { data[0] = 3 },
		Steps: []Superstep{
			{Label: 0, Run: func(c *Ctx) {
				if c.ID() == 0 {
					c.Send(0, 9)
				}
			}},
			{Label: 1, Run: func(c *Ctx) {
				if c.ID() == proc {
					fn(c)
				}
			}},
		},
	}
}

// primedWindow returns an HMM machine holding the 8 contexts of
// primedProgram as superstep 1 finds them: every data word 3, and
// processor 0's inbox holding one message (src 0, payload 9).
func primedWindow() *hmm.Machine {
	l := ctxTestLayout
	mu := l.Mu()
	m := hmm.New(cost.Log{}, int64(8*mu))
	for p := 0; p < 8; p++ {
		m.Poke(int64(p*mu), 3)
	}
	m.PokeRange(int64(l.InCountOff()), []Word{1, 0, 9})
	return m
}

// TestCtxAccessors pins what one call of each accessor counts on both
// backings: τ on the engine, and on a simulator window the words the
// host machine reads and writes plus the compute ops it charges. One
// unit per context word touched, plus Work's n.
func TestCtxAccessors(t *testing.T) {
	cases := []struct {
		name                string
		fn                  func(c *Ctx)
		reads, writes, work int64
	}{
		{"Load", func(c *Ctx) {
			if c.Load(0) != 3 {
				panic("Load(0) != 3")
			}
		}, 1, 0, 0},
		{"Store", func(c *Ctx) { c.Store(0, 7) }, 0, 1, 0},
		{"NumRecv", func(c *Ctx) {
			if c.NumRecv() != 1 {
				panic("NumRecv() != 1")
			}
		}, 1, 0, 0},
		{"Recv", func(c *Ctx) {
			if src, payload := c.Recv(0); src != 0 || payload != 9 {
				panic(fmt.Sprintf("Recv(0) = (%d, %d), want (0, 9)", src, payload))
			}
		}, 3, 0, 0},
		{"Send", func(c *Ctx) { c.Send(3, 5) }, 1, 3, 0},
		{"Work", func(c *Ctx) {
			if c.V() != 8 || c.Label() != 1 {
				panic("bad V or Label")
			}
			c.Work(5)
		}, 0, 0, 5},
	}
	for _, tc := range cases {
		tau := tc.reads + tc.writes + tc.work
		res, err := Run(primedProgram(0, tc.fn), cost.Log{})
		if err != nil {
			t.Errorf("%s on the engine: %v", tc.name, err)
		} else if got := res.Steps[1].Tau; got != tau {
			t.Errorf("%s on the engine: τ = %d, want %d", tc.name, got, tau)
		}

		m := primedWindow()
		if err := NewGuest(ctxTestLayout, 8).RunBlocks(tc.fn, m, 0, 1, 1); err != nil {
			t.Errorf("%s on a window: %v", tc.name, err)
			continue
		}
		st := m.Stats()
		if st.Reads != tc.reads || st.Writes != tc.writes || st.ComputeOps != tc.work {
			t.Errorf("%s on a window: %d reads, %d writes, %d ops; want %d, %d, %d",
				tc.name, st.Reads, st.Writes, st.ComputeOps, tc.reads, tc.writes, tc.work)
		}
	}
}

// TestCtxPanicsOnBadAccess pins the text of every bad access, through
// dbsp.Run and through a Guest over an HMM machine. Processor 0's inbox
// holds one message; processor 1's is empty.
func TestCtxPanicsOnBadAccess(t *testing.T) {
	cases := []struct {
		proc int
		fn   func(c *Ctx)
		want string // the panic text
	}{
		{0, func(c *Ctx) { c.Load(-1) }, "dbsp: proc 0: Load(-1) outside data region [0,1)"},
		{0, func(c *Ctx) { c.Load(1) }, "dbsp: proc 0: Load(1) outside data region [0,1)"},
		{0, func(c *Ctx) { c.Store(-1, 0) }, "dbsp: proc 0: Store(-1) outside data region [0,1)"},
		{0, func(c *Ctx) { c.Store(1, 0) }, "dbsp: proc 0: Store(1) outside data region [0,1)"},
		{0, func(c *Ctx) { c.Work(-1) }, "dbsp: negative work"},
		{0, func(c *Ctx) { c.Send(-1, 0) }, "dbsp: proc 0: Send to invalid processor -1"},
		{0, func(c *Ctx) { c.Send(8, 0) }, "dbsp: proc 0: Send to invalid processor 8"},
		{0, func(c *Ctx) { c.Send(4, 0) }, "dbsp: proc 0: Send to 4 crosses 1-cluster boundary"},
		{0, func(c *Ctx) { c.Send(1, 0); c.Send(2, 0) }, "dbsp: proc 0: outbox overflow (MaxMsgs=1)"},
		{0, func(c *Ctx) { c.Recv(-1) }, "dbsp: proc 0: Recv(-1) with 1 messages"},
		{0, func(c *Ctx) { c.Recv(1) }, "dbsp: proc 0: Recv(1) with 1 messages"},
		{1, func(c *Ctx) { c.Recv(0) }, "dbsp: proc 1: Recv(0) with 0 messages"},
	}
	for _, tc := range cases {
		want := fmt.Sprintf("dbsp: program \"ctx\" superstep 1: processor %d: handler panic: %s", tc.proc, tc.want)
		if _, err := Run(primedProgram(tc.proc, tc.fn), cost.Log{}); err == nil || err.Error() != want {
			t.Errorf("engine: got %v, want %q", err, want)
		}
		want = fmt.Sprintf("processor %d: handler panic: %s", tc.proc, tc.want)
		run := func(c *Ctx) {
			if c.ID() == tc.proc {
				tc.fn(c)
			}
		}
		if err := NewGuest(ctxTestLayout, 8).RunBlocks(run, primedWindow(), 0, 8, 1); err == nil || err.Error() != want {
			t.Errorf("window: got %v, want %q", err, want)
		}
	}
}
