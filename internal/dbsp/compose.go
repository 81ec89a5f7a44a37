package dbsp

import "fmt"

// Concat chains programs into one: the supersteps of each run in
// sequence over the same machine and contexts. All programs must agree
// on V and Layout; only the first program's Init is kept (later inputs
// are whatever the previous stage left in the contexts — the point of
// chaining). The D-BSP pipelines of the paper's case studies (e.g. the
// convolution: DFT, pointwise product, inverse DFT) are compositions of
// this kind.
func Concat(name string, progs ...*Program) (*Program, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("dbsp: Concat of nothing")
	}
	out := &Program{
		Name:   name,
		V:      progs[0].V,
		Layout: progs[0].Layout,
		Init:   progs[0].Init,
	}
	for i, p := range progs {
		if p.V != out.V {
			return nil, fmt.Errorf("dbsp: Concat: program %d has V=%d, want %d", i, p.V, out.V)
		}
		if p.Layout != out.Layout {
			return nil, fmt.Errorf("dbsp: Concat: program %d has a different layout", i)
		}
		out.Steps = append(out.Steps, p.Steps...)
	}
	return out, nil
}

// Repeat runs prog's supersteps k times in sequence (k >= 1), keeping
// its Init — the shape of iterative algorithms such as relaxations.
func Repeat(name string, prog *Program, k int) (*Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("dbsp: Repeat with k=%d", k)
	}
	out := &Program{Name: name, V: prog.V, Layout: prog.Layout, Init: prog.Init}
	for i := 0; i < k; i++ {
		out.Steps = append(out.Steps, prog.Steps...)
	}
	return out, nil
}
