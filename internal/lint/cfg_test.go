package lint

import (
	"go/ast"
	"testing"
)

// cfgFor loads src as package p, type-checks it, and returns the
// package plus the named function's declaration and CFG.
func cfgFor(t *testing.T, src, fnName string) (*Package, *ast.FuncDecl, *CFG) {
	t.Helper()
	pkgs := loadTemp(t, map[string]string{"p/p.go": src})
	TypeCheck(pkgs)
	pkg := pkgs[0]
	if pkg.Info == nil {
		t.Fatal("package not type-checked")
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == fnName {
				return pkg, fn, NewCFG(fn.Body)
			}
		}
	}
	t.Fatalf("function %s not found", fnName)
	return nil, nil, nil
}

// reachable returns the set of blocks reachable from the entry.
func reachable(c *CFG) map[*Block]bool {
	seen := map[*Block]bool{c.Entry: true}
	work := []*Block{c.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	_, _, c := cfgFor(t, `package p

func F() int {
	a := 1
	b := a + 1
	return b
}
`, "F")
	if len(c.Entry.Nodes) != 3 {
		t.Errorf("entry block has %d nodes, want 3", len(c.Entry.Nodes))
	}
	if len(c.Entry.Succs) != 1 || c.Entry.Succs[0] != c.Exit {
		t.Errorf("entry succs = %v, want [Exit]", c.Entry.Succs)
	}
}

func TestCFGIfElseJoins(t *testing.T) {
	_, _, c := cfgFor(t, `package p

func F(cond bool) int {
	x := 0
	if cond {
		x = 1
	} else {
		x = 2
	}
	return x
}
`, "F")
	// The condition block must fork two ways, and both branch blocks
	// must rejoin at the block holding the return.
	if n := len(c.Entry.Succs); n != 2 {
		t.Fatalf("condition block has %d successors, want 2", n)
	}
	var retBlock *Block
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				retBlock = blk
			}
		}
	}
	if retBlock == nil {
		t.Fatal("no block holds the return")
	}
	if len(retBlock.Preds) != 2 {
		t.Errorf("join block has %d preds, want 2 (then and else)", len(retBlock.Preds))
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	_, _, c := cfgFor(t, `package p

func F(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}
`, "F")
	// Find the head block (holds the condition, two successors) and
	// check it participates in a cycle: some reachable path returns.
	var head *Block
	for _, blk := range c.Blocks {
		if len(blk.Succs) == 2 {
			head = blk
		}
	}
	if head == nil {
		t.Fatal("no two-way head block in loop CFG")
	}
	// The head must be reachable from itself through the body+post.
	seen := map[*Block]bool{}
	work := append([]*Block{}, head.Succs...)
	inCycle := false
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		if blk == head {
			inCycle = true
			break
		}
		if seen[blk] {
			continue
		}
		seen[blk] = true
		work = append(work, blk.Succs...)
	}
	if !inCycle {
		t.Error("loop head has no back edge through the body")
	}
	if !reachable(c)[c.Exit] {
		t.Error("exit unreachable from entry")
	}
}

func TestCFGBreakContinue(t *testing.T) {
	_, _, c := cfgFor(t, `package p

func F(xs []int) int {
	s := 0
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x > 100 {
			break
		}
		s += x
	}
	return s
}
`, "F")
	if !reachable(c)[c.Exit] {
		t.Error("exit unreachable with break/continue present")
	}
	// The `s += x` statement must sit in a reachable block (continue
	// and break must not orphan the rest of the body).
	r := reachable(c)
	found := false
	for blk := range r {
		for _, n := range blk.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "s" && len(blk.Preds) > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("loop body tail not reachable")
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	_, _, c := cfgFor(t, `package p

var sink int

func F() int {
	return 1
	sink = 2
	return 3
}
`, "F")
	r := reachable(c)
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "sink" {
					if r[blk] || len(blk.Preds) != 0 {
						t.Errorf("dead statement's block reachable=%v preds=%d, want unreachable with no preds", r[blk], len(blk.Preds))
					}
					return
				}
			}
		}
	}
	t.Fatal("dead statement not placed in any block")
}

func TestCFGGotoAndLabels(t *testing.T) {
	_, _, c := cfgFor(t, `package p

func F(n int) int {
	s := 0
loop:
	s++
	if s < n {
		goto loop
	}
	return s
}
`, "F")
	if !reachable(c)[c.Exit] {
		t.Error("exit unreachable in goto loop")
	}
	// The labeled block must have at least two preds: fallthrough from
	// entry and the goto back edge.
	var labeled *Block
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if inc, ok := n.(*ast.IncDecStmt); ok {
				if id, ok := inc.X.(*ast.Ident); ok && id.Name == "s" {
					labeled = blk
				}
			}
		}
	}
	if labeled == nil {
		t.Fatal("labeled statement not found")
	}
	if len(labeled.Preds) < 2 {
		t.Errorf("labeled block has %d preds, want >= 2 (entry + goto)", len(labeled.Preds))
	}
}

func TestCFGSwitchShapes(t *testing.T) {
	_, _, c := cfgFor(t, `package p

func F(n int) int {
	s := 0
	switch n {
	case 1:
		s = 1
		fallthrough
	case 2:
		s += 2
	case 3:
		s = 3
	}
	return s
}
`, "F")
	if !reachable(c)[c.Exit] {
		t.Error("exit unreachable in switch")
	}
	// case 2's block must have two preds: the switch head and the
	// fallthrough edge from case 1.
	var case2 *Block
	for _, blk := range c.Blocks {
		for _, n := range blk.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "s" && as.Tok.String() == "+=" {
					case2 = blk
				}
			}
		}
	}
	if case2 == nil {
		t.Fatal("case 2 block not found")
	}
	if len(case2.Preds) != 2 {
		t.Errorf("fallthrough case has %d preds, want 2 (head + fallthrough)", len(case2.Preds))
	}
}

func TestFreeVarsCaptures(t *testing.T) {
	pkg, fn, _ := cfgFor(t, `package p

var global int

func F(a, b int) func(int) int {
	c := a + 1
	return func(d int) int {
		e := d
		return c + b + e + global
	}
}
`, "F")
	var lit *ast.FuncLit
	ast.Inspect(fn, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
		}
		return true
	})
	if lit == nil {
		t.Fatal("no function literal")
	}
	got := map[string]bool{}
	for _, v := range FreeVars(pkg, fn, lit) {
		got[v.Name()] = true
	}
	// c and b are captured; d and e are the literal's own, global is
	// package state, a is unused inside the literal.
	for _, want := range []string{"c", "b"} {
		if !got[want] {
			t.Errorf("FreeVars missing %s (got %v)", want, got)
		}
	}
	for _, bad := range []string{"a", "d", "e", "global"} {
		if got[bad] {
			t.Errorf("FreeVars wrongly includes %s", bad)
		}
	}
}

func TestBasePath(t *testing.T) {
	pkg, fn, _ := cfgFor(t, `package p

type inner struct{ mu, other int }

type outer struct {
	root  *inner
	elems []inner
}

func F(o *outer) (int, int, int) {
	a := o.root.mu
	b := o.elems[0].mu
	c := o.root.other
	return a, b, c
}
`, "F")
	exprs := map[string]ast.Expr{}
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			exprs[id.Name] = as.Rhs[0]
		}
		return true
	})
	base, path, ok := basePath(pkg, exprs["a"])
	if !ok || base.Name() != "o" || path != "root.mu" {
		t.Errorf("basePath(o.root.mu) = (%v, %q, %v), want (o, root.mu, true)", base, path, ok)
	}
	if _, _, ok := basePath(pkg, exprs["b"]); ok {
		t.Error("basePath through an index expression must give up (ok = false)")
	}
	base, path, ok = basePath(pkg, exprs["c"])
	if !ok || base.Name() != "o" || path != "root.other" {
		t.Errorf("basePath(o.root.other) = (%v, %q, %v), want (o, root.other, true)", base, path, ok)
	}
}
