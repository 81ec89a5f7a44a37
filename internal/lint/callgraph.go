// callgraph.go builds the module call graph the interprocedural layer
// (DESIGN §12) runs on. Nodes are the module's declared functions and
// methods (anything indexFuncDecls finds — bodies in the loaded
// package set); edges are
//
//   - direct calls: f() and recv.M() resolved through go/types object
//     identity, so aliasing and embedding are handled;
//   - interface calls, conservatively devirtualized: a call through an
//     interface method adds an edge to every module method whose
//     receiver type implements that interface and declares that name —
//     a superset of the dynamic targets, which is the sound direction
//     for taint propagation;
//   - reference edges: mentioning a module function outside call
//     position (a method value, a function passed as an argument, a
//     function-typed struct field initializer) adds an edge marked
//     Ref=true, because the referenced function may run wherever the
//     value flows.
//
// Out-of-module callees (the stdlib placeholders of typed.go) have no
// bodies and no nodes; the analyzers special-case the few that matter
// (time.Now, math/rand, fmt, sort). Reflection and cgo are out of
// scope entirely — DESIGN §12 records the soundness caveat.
//
// SCCs returns Tarjan's strongly connected components in callee-first
// (reverse topological) order, which is exactly the order the
// bottom-up summary pass of summary.go needs: every callee outside the
// current SCC is summarized before its callers, and mutual recursion
// inside an SCC is handled by iterating that component to a fixpoint.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// FuncNode is one module function or method in the call graph.
type FuncNode struct {
	// Fn is the function's type object (identity key).
	Fn *types.Func
	// Pkg declares the function.
	Pkg *Package
	// Decl is the declaration, body included.
	Decl *ast.FuncDecl
	// Calls are the outgoing edges, in source order.
	Calls []*CallSite
}

// CallSite is one outgoing call-graph edge.
type CallSite struct {
	// Callee is the edge target.
	Callee *FuncNode
	// Pos locates the call or reference in the caller.
	Pos token.Pos
	// Call is the call expression for direct and devirtualized calls;
	// nil for reference edges.
	Call *ast.CallExpr
	// Ref marks a reference edge (method value, function value,
	// function-typed field) rather than a syntactic call.
	Ref bool
}

// CallGraph is the module call graph plus its bottom-up SCC order.
type CallGraph struct {
	// Nodes maps every module function object to its node.
	Nodes map[*types.Func]*FuncNode
	// SCCs lists the strongly connected components callee-first:
	// every edge from SCCs[i] targets SCCs[j] with j <= i.
	SCCs [][]*FuncNode
	// order lists the nodes in deterministic (file, position) order so
	// graph construction and traversal are reproducible run to run.
	order []*FuncNode
}

// NewCallGraph builds the call graph over pkgs. Packages must already
// be type-checked (lint.Run does this; tests call TypeCheck first).
func NewCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	idx := indexFuncDecls(pkgs)
	for fn, site := range idx {
		node := &FuncNode{Fn: fn, Pkg: site.pkg, Decl: site.decl}
		g.Nodes[fn] = node
		g.order = append(g.order, node)
	}
	// Map iteration above is randomized; pin a stable order before any
	// traversal so SCC numbering and summary messages are reproducible.
	sort.Slice(g.order, func(i, j int) bool {
		pi := g.order[i].Pkg.Fset.Position(g.order[i].Decl.Pos())
		pj := g.order[j].Pkg.Fset.Position(g.order[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	for _, node := range g.order {
		g.addEdges(node)
	}
	g.SCCs = g.tarjan()
	return g
}

// declSite locates one module function declaration.
type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// indexFuncDecls maps every module function object to its declaration,
// so the call graph can cross package boundaries.
func indexFuncDecls(pkgs []*Package) map[*types.Func]declSite {
	idx := map[*types.Func]declSite{}
	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					idx[fn] = declSite{pkg, fd}
				}
			}
		}
	}
	return idx
}

// addEdges walks node's body and records outgoing edges.
func (g *CallGraph) addEdges(node *FuncNode) {
	pkg := node.Pkg
	// callFun remembers which SelectorExpr/Ident nodes are the Fun of
	// an enclosing call, so a mention of a function *outside* call
	// position can be recognized as a reference edge; handled marks the
	// Sel identifiers already consumed by their SelectorExpr so the
	// child visit does not add a duplicate (misclassified) edge.
	callFun := map[ast.Node]*ast.CallExpr{}
	handled := map[*ast.Ident]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFun[ast.Unparen(call.Fun)] = call
		}
		if pkg.Info == nil {
			return true
		}
		switch x := n.(type) {
		case *ast.Ident:
			// Uses only: the Def identifiers of nested declarations
			// must not create edges.
			if handled[x] {
				return true
			}
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				g.edgeTo(node, fn, x.Pos(), callFun[x])
			}
		case *ast.SelectorExpr:
			handled[x.Sel] = true
			if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				g.edgeTo(node, fn, x.Sel.Pos(), callFun[x])
			}
		}
		return true
	})
}

// edgeTo records an edge from node to the function object fn: direct
// when fn has a module body, devirtualized when fn is an interface
// method with module implementations.
func (g *CallGraph) edgeTo(node *FuncNode, fn *types.Func, pos token.Pos, call *ast.CallExpr) {
	if target, ok := g.Nodes[fn]; ok {
		node.Calls = append(node.Calls, &CallSite{Callee: target, Pos: pos, Call: call, Ref: call == nil})
		return
	}
	// Interface method: add one edge per module method that can
	// implement it. types.Implements needs the method set of the
	// concrete type; check both T and *T.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	for _, target := range g.order {
		tsig, ok := target.Fn.Type().(*types.Signature)
		if !ok || tsig.Recv() == nil || target.Fn.Name() != fn.Name() {
			continue
		}
		recv := tsig.Recv().Type()
		if named, ok := recv.(*types.Pointer); ok {
			recv = named.Elem()
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			node.Calls = append(node.Calls, &CallSite{Callee: target, Pos: pos, Call: call, Ref: call == nil})
		}
	}
}

// tarjan computes strongly connected components; the emission order of
// Tarjan's algorithm is callee-first (an SCC is emitted only after
// every SCC it calls into), which is the bottom-up summary order.
func (g *CallGraph) tarjan() [][]*FuncNode {
	var (
		sccs    [][]*FuncNode
		index   = map[*FuncNode]int{}
		lowlink = map[*FuncNode]int{}
		onStack = map[*FuncNode]bool{}
		stack   []*FuncNode
		next    int
	)
	// Iterative Tarjan with an explicit work stack: recursion depth
	// equals call-chain depth and deep module call chains must not
	// overflow the goroutine stack.
	type frame struct {
		node *FuncNode
		edge int
	}
	var walk func(root *FuncNode)
	walk = func(root *FuncNode) {
		frames := []frame{{node: root}}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(f.node.Calls) {
				callee := f.node.Calls[f.edge].Callee
				f.edge++
				if _, seen := index[callee]; !seen {
					index[callee], lowlink[callee] = next, next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					frames = append(frames, frame{node: callee})
				} else if onStack[callee] && index[callee] < lowlink[f.node] {
					lowlink[f.node] = index[callee]
				}
				continue
			}
			// All edges explored: pop the frame, fold lowlink into the
			// parent, and emit an SCC when f.node is its root.
			done := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 && lowlink[done] < lowlink[frames[len(frames)-1].node] {
				lowlink[frames[len(frames)-1].node] = lowlink[done]
			}
			if lowlink[done] == index[done] {
				var scc []*FuncNode
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == done {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	for _, node := range g.order {
		if _, seen := index[node]; !seen {
			walk(node)
		}
	}
	return sccs
}
