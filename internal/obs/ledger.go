package obs

import (
	"strconv"
	"strings"
)

// Ledger is the one charging path from a simulator's phase boundaries
// to the cost report: Charge adds a phase's model-cost delta to the
// <sim>.cost.<phase> counter and, when a profile is attached, to the
// folded stack <sim>;<frame>;<phase>, so the counters and the stacks
// cannot disagree. A Ledger belongs to one simulator run on one
// goroutine. Every method no-ops on a nil receiver, which is what
// Observer.Ledger returns when observability is off.
type Ledger struct {
	sim      string
	reg      *Registry
	prof     *Profile
	counters map[string]*FloatCounter // phase -> <sim>.cost.<phase>
}

// Ledger returns a cost ledger for sim, or nil when o is nil. The named
// phases are registered up front, so they report (as 0) even if never
// charged; any other phase is registered at its first charge.
func (o *Observer) Ledger(sim string, phases ...string) *Ledger {
	if o == nil {
		return nil
	}
	l := &Ledger{sim: sim, reg: o.Reg, prof: o.Profile().Scope(sim),
		counters: make(map[string]*FloatCounter, len(phases))}
	for _, ph := range phases {
		l.counter(ph)
	}
	return l
}

// Charge adds delta to <sim>.cost.<phase> and to the profile stack
// <sim>;<frame>;<phase>. A dotted sub-phase ("deliver.sort") refines a
// phase whose window it overlaps, so it reaches the counter only; a
// zero delta leaves no stack. Nil-safe.
func (l *Ledger) Charge(frame, phase string, delta float64) {
	if l == nil {
		return
	}
	l.counter(phase).Add(delta)
	if l.prof != nil && !strings.Contains(phase, ".") {
		l.prof.Add(delta, frame, phase)
	}
}

// Total adds cost, the host cost the simulator returned, to
// <sim>.cost.total verbatim: after one run on a fresh registry the
// report's total row equals the returned cost exactly. Nil-safe.
func (l *Ledger) Total(cost float64) {
	if l == nil {
		return
	}
	l.reg.FloatCounter(l.sim + ".cost.total").Add(cost)
}

// counter resolves a phase's counter once per ledger.
func (l *Ledger) counter(phase string) *FloatCounter {
	c, ok := l.counters[phase]
	if !ok {
		c = l.reg.FloatCounter(l.sim + ".cost." + phase)
		l.counters[phase] = c
	}
	return c
}

// labelFrames holds the profile frame of every superstep label an int
// processor count allows (labels lie in [0, log2 v] and v < 2^63).
var labelFrames = func() (f [63]string) {
	for l := range f {
		f[l] = "label." + strconv.Itoa(l)
	}
	return f
}()

// LabelFrame returns "label.<l>", the profile frame that attributes a
// charge to the supersteps of label l.
func LabelFrame(l int) string { return labelFrames[l] }
