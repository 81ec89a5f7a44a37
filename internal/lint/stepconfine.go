package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StepConfine enforces the state-confinement discipline of superstep
// handlers: a Superstep.Run closure executes once per processor, and
// the engines are free to run those executions concurrently (the dbsp
// engine's shards do, and the sweep layers whole runs on top). All
// per-processor state must therefore live in the processor's own Ctx;
// a write to a variable captured from the enclosing scope is shared
// mutable state that races across processors — exactly the class of bug
// the -race CI job catches only when the schedule cooperates. The
// analyzer flags every assignment (including op-assign, ++/-- and
// writes through index/selector/pointer paths) whose base identifier
// resolves to a variable declared outside the Run closure. Reads of
// captured variables stay legal: closing over loop indices, lookup
// tables and input functions is the builders' normal idiom.
var StepConfine = &Analyzer{
	Name:  "stepconfine",
	Doc:   "Superstep.Run closures must not write captured variables; per-processor state belongs in the Ctx",
	Layer: LayerTyped,
	Run:   runStepConfine,
}

func runStepConfine(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Info == nil {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if !isTypeNamed(pkg.Info.TypeOf(x), "internal/dbsp", "Superstep") {
					return true
				}
				if fn, ok := superstepRun(x).(*ast.FuncLit); ok {
					checkRunClosure(pass, fn)
				}
			case *ast.AssignStmt:
				// st.Run = func(...) {...} — imperative wiring.
				if len(x.Lhs) != 1 || len(x.Rhs) != 1 {
					return true
				}
				sel, ok := x.Lhs[0].(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Run" {
					return true
				}
				if !isTypeNamed(pkg.Info.TypeOf(sel.X), "internal/dbsp", "Superstep") {
					return true
				}
				if fn, ok := x.Rhs[0].(*ast.FuncLit); ok {
					checkRunClosure(pass, fn)
				}
			}
			return true
		})
	}
}

// superstepRun returns the Run field value of a Superstep composite
// literal, in keyed or positional form.
func superstepRun(lit *ast.CompositeLit) ast.Expr {
	if v := fieldValue(lit, "Run"); v != nil {
		return v
	}
	if len(lit.Elts) >= 2 {
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
			return lit.Elts[1]
		}
	}
	return nil
}

// checkRunClosure flags writes to free variables anywhere inside the
// closure, nested function literals included — they run on the same
// processor goroutine.
func checkRunClosure(pass *Pass, fn *ast.FuncLit) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				flagFreeWrite(pass, fn, lhs)
			}
		case *ast.IncDecStmt:
			flagFreeWrite(pass, fn, st.X)
		}
		return true
	})
}

// flagFreeWrite reports lhs when its base identifier is a variable
// declared outside the closure (parameters and closure-local variables
// are inside its source range and pass).
func flagFreeWrite(pass *Pass, fn *ast.FuncLit, lhs ast.Expr) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	v, ok := objectOf(pass.Pkg, id).(*types.Var)
	if !ok || v.IsField() {
		return
	}
	if posWithin(v.Pos(), fn) {
		return // declared inside the Run closure: per-execution state
	}
	pass.Reportf(id.Pos(),
		"Run closure writes captured variable %q; processors execute concurrently, so writes to enclosing-scope state race (keep per-processor state in the Ctx, or aggregate after the run)", id.Name)
}
