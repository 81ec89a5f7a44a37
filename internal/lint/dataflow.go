// dataflow.go holds the value helpers the analyzers share on top of
// the typed pass: a function's body, the variables a closure captures
// from its enclosing function, and the root-plus-field-path split of a
// selector chain. lockdiscipline matches guards through basePath, and
// the interprocedural summaries follow captured variables through
// FreeVars.
//
// Everything here is intra-procedural and best-effort by design (the
// same trade the whole typed pass makes): "no information" always
// degrades toward silence in the analyzers, never toward a false
// finding. DESIGN §10 records the caveats.
package lint

import (
	"go/ast"
	"go/types"
)

// funcBody returns the body of a FuncDecl or FuncLit node.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch f := fn.(type) {
	case *ast.FuncDecl:
		return f.Body
	case *ast.FuncLit:
		return f.Body
	}
	return nil
}

// FreeVars returns the variables lit captures from its enclosing
// function fn: identifiers used inside lit whose object is a variable
// declared in fn but outside lit. Captures are by reference in Go, so
// every entry is shared state between lit and its enclosing function.
func FreeVars(pkg *Package, fn ast.Node, lit *ast.FuncLit) []*types.Var {
	if pkg.Info == nil {
		return nil
	}
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if posWithin(v.Pos(), lit) || !posWithin(v.Pos(), fn) {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// basePath splits a selector chain into its root identifier's object
// and the dotted field path, e.g. p.root.mu → (obj(p), "root.mu").
// Index, star and paren layers end the chase (ok = false): a guard
// held through an indexed element cannot be matched by name.
func basePath(pkg *Package, e ast.Expr) (base types.Object, path string, ok bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := objectOf(pkg, x)
		if obj == nil {
			return nil, "", false
		}
		return obj, "", true
	case *ast.SelectorExpr:
		obj, p, ok := basePath(pkg, x.X)
		if !ok {
			return nil, "", false
		}
		if p == "" {
			return obj, x.Sel.Name, true
		}
		return obj, p + "." + x.Sel.Name, true
	}
	return nil, "", false
}
