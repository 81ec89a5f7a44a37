package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline checks `// guarded by <mu>` field annotations: a
// field so annotated may only be read or written on paths where the
// named sibling mutex is held. sweep.Progress, obs.Registry,
// obs.Profile and the obshttp sinks all follow the
// one-mutex-per-struct convention; this analyzer turns the convention
// into a checked contract, so the sharded engine refactor cannot
// silently add an unguarded heartbeat write or snapshot read.
//
// The analysis is a forward must-hold dataflow over the lint.CFG:
// <path>.Lock()/<path>.RLock() generate a held-guard fact keyed by the
// access path's root object and dotted field path, Unlock/RUnlock kill
// it, and merge is set intersection (a guard is held at a join only if
// held on every inbound path). `defer <path>.Unlock()` does not kill —
// the unlock runs at return. Two conventions refine the check:
//
//   - methods whose name ends in "Locked" assume every guard of their
//     receiver held at entry (the etaLocked/publishLocked pattern), and
//     call sites of such methods must hold those guards;
//   - accesses through differently-rooted paths (an indexed element, a
//     value returned by a call) are not matched — basePath gives up and
//     the analyzer stays silent rather than guessing aliases.
//
// Annotations are collected per package: guarded fields are internal
// state, accessed next to their mutex. Function literals are analyzed
// as separate functions with an empty entry state, so a closure that
// touches guarded state must lock (or be justified with a directive).
//
// The race detector does not replace this check. With its lock
// dropped, 12 of the 37 functions that lock guarded state pass every
// `go test -race` run, because no test reaches them from two
// goroutines at once: serve's Scheduler.List and resultStream.all;
// obs's RingSink.Emit, Events and Dropped and JSONLSink.Emit, Err and
// Close; obshttp's ProgressSet.Register, Unregister and Snapshot; and
// perfbench's tracer.heldBytes and snapshot. Two more, sweep's
// Progress.begin and Progress.jobSkipped, fail only some runs. Only
// this analyzer guards those 14 on every run.
var LockDiscipline = &Analyzer{
	Name:  "lockdiscipline",
	Doc:   "fields annotated `// guarded by <mu>` are only accessed while the named mutex is held",
	Layer: LayerDataflow,
	Run:   runLockDiscipline,
}

// guardKey identifies one held mutex: the root object of its access
// path and the dotted field path from it ("mu", "root.mu").
type guardKey struct {
	base types.Object
	path string
}

// holdState is the must-hold lattice element: top (everything held,
// the unreachable boundary) or a finite held set.
type holdState struct {
	top  bool
	held map[guardKey]bool
}

func (s holdState) clone() holdState {
	if s.top {
		return s
	}
	c := make(map[guardKey]bool, len(s.held))
	for k := range s.held {
		c[k] = true
	}
	return holdState{held: c}
}

func (s holdState) equal(t holdState) bool {
	if s.top != t.top {
		return false
	}
	if len(s.held) != len(t.held) {
		return false
	}
	for k := range s.held {
		if !t.held[k] {
			return false
		}
	}
	return true
}

func (s holdState) has(k guardKey) bool { return s.top || s.held[k] }

// guardInfo is the per-package annotation table.
type guardInfo struct {
	// fieldGuard maps an annotated field to its guard's name.
	fieldGuard map[*types.Var]string
	// typeGuards maps a struct's type name to the set of guard names
	// its fields reference, for the *Locked receiver convention.
	typeGuards map[*types.TypeName]map[string]bool
}

func runLockDiscipline(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Info == nil {
		return
	}
	gi := collectGuards(pkg)
	if len(gi.fieldGuard) == 0 {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				lockDisciplineFn(pass, gi, fn)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				lockDisciplineFn(pass, gi, lit)
			}
			return true
		})
	}
}

// collectGuards scans the package's struct declarations for
// `// guarded by <name>` field comments (doc or trailing line comment).
func collectGuards(pkg *Package) guardInfo {
	gi := guardInfo{
		fieldGuard: map[*types.Var]string{},
		typeGuards: map[*types.TypeName]map[string]bool{},
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, _ := objectOf(pkg, ts.Name).(*types.TypeName)
			for _, field := range st.Fields.List {
				guard := guardAnnotation(field)
				if guard == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := objectOf(pkg, name).(*types.Var); ok {
						gi.fieldGuard[v] = guard
					}
				}
				if tn != nil {
					if gi.typeGuards[tn] == nil {
						gi.typeGuards[tn] = map[string]bool{}
					}
					gi.typeGuards[tn][guard] = true
				}
			}
			return true
		})
	}
	return gi
}

// guardAnnotation extracts the mutex name from a field's
// `// guarded by <name>` comment, or "".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "guarded by ")
			if !ok {
				continue
			}
			if name := strings.Fields(rest); len(name) > 0 {
				return strings.TrimSuffix(name[0], ".")
			}
		}
	}
	return ""
}

// lockedEntry returns the entry state of fn: *Locked methods start
// with every guard of their receiver held.
func lockedEntry(pkg *Package, gi guardInfo, fn ast.Node) holdState {
	entry := holdState{held: map[guardKey]bool{}}
	decl, ok := fn.(*ast.FuncDecl)
	if !ok || !strings.HasSuffix(decl.Name.Name, "Locked") || decl.Recv == nil {
		return entry
	}
	for _, field := range decl.Recv.List {
		for _, name := range field.Names {
			recv, ok := objectOf(pkg, name).(*types.Var)
			if !ok {
				continue
			}
			for _, g := range receiverGuards(gi, recv.Type()) {
				entry.held[guardKey{recv, g}] = true
			}
		}
	}
	return entry
}

// receiverGuards returns the guard names annotated on t's struct
// fields (chasing one pointer layer), or nil.
func receiverGuards(gi guardInfo, t types.Type) []string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	var out []string
	for g := range gi.typeGuards[named.Obj()] {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

func lockDisciplineFn(pass *Pass, gi guardInfo, fn ast.Node) {
	body := funcBody(fn)
	if body == nil {
		return
	}
	pkg := pass.Pkg
	cfg := NewCFG(body)
	transfer := func(s holdState, n ast.Node) holdState {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			return s // deferred Unlock runs at return, not here
		}
		var gen, kill []guardKey
		scanBlockNode(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) != 0 {
				return true
			}
			base, path, ok := basePath(pkg, sel.X)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				gen = append(gen, guardKey{base, path})
			case "Unlock", "RUnlock":
				kill = append(kill, guardKey{base, path})
			}
			return true
		})
		if len(gen) == 0 && len(kill) == 0 {
			return s
		}
		out := s.clone()
		if out.top {
			return out
		}
		for _, k := range kill {
			delete(out.held, k)
		}
		for _, k := range gen {
			out.held[k] = true
		}
		return out
	}
	in := SolveForward(cfg, FlowProblem[holdState]{
		Boundary:    lockedEntry(pkg, gi, fn),
		Unreachable: holdState{top: true},
		Merge: func(a, b holdState) holdState {
			if a.top {
				return b.clone()
			}
			if b.top {
				return a.clone()
			}
			m := map[guardKey]bool{}
			for k := range a.held {
				if b.held[k] {
					m[k] = true
				}
			}
			return holdState{held: m}
		},
		Transfer: transfer,
		Equal:    func(a, b holdState) bool { return a.equal(b) },
	})
	for _, blk := range cfg.Blocks {
		s := in[blk]
		for _, n := range blk.Nodes {
			checkGuardedAccesses(pass, gi, s, n)
			s = transfer(s, n)
		}
	}
}

// checkGuardedAccesses flags guarded-field accesses and *Locked method
// calls in n for which the required guard is not in s.
func checkGuardedAccesses(pass *Pass, gi guardInfo, s holdState, n ast.Node) {
	pkg := pass.Pkg
	scanBlockNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SelectorExpr:
			v, ok := objectOf(pkg, m.Sel).(*types.Var)
			if !ok || !v.IsField() {
				return true
			}
			guard, ok := gi.fieldGuard[v]
			if !ok {
				return true
			}
			base, prefix, ok := basePath(pkg, m.X)
			if !ok {
				return true // unmatchable path: stay silent
			}
			key := guardKey{base, joinPath(prefix, guard)}
			if !s.has(key) {
				pass.Reportf(m.Sel.Pos(),
					"%q is annotated `guarded by %s` but %s is not held here — lock it first or move the access into a *Locked helper",
					m.Sel.Name, guard, accessPathString(base, key.path))
			}
		case *ast.CallExpr:
			sel, ok := m.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
				return true
			}
			fn, ok := objectOf(pkg, sel.Sel).(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() == nil {
				return true
			}
			base, prefix, ok := basePath(pkg, sel.X)
			if !ok {
				return true
			}
			tv, haveType := pkg.Info.Types[sel.X]
			if !haveType {
				return true
			}
			for _, g := range receiverGuards(gi, tv.Type) {
				key := guardKey{base, joinPath(prefix, g)}
				if !s.has(key) {
					pass.Reportf(m.Pos(),
						"%s assumes %s held (the *Locked convention) but it is not held at this call",
						sel.Sel.Name, accessPathString(base, key.path))
				}
			}
		}
		return true
	})
}

func joinPath(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

func accessPathString(base types.Object, path string) string {
	if path == "" {
		return base.Name()
	}
	return base.Name() + "." + path
}
