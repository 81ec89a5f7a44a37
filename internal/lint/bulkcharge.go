package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BulkCharge keeps the PR-5 fast-path discipline from regressing:
// per-word hmm.Machine accesses inside a unit-stride loop are charged
// one cost-table lookup per word, while the bulk *Range APIs charge
// the whole interval in O(segments). A hot loop that calls Read(base+i)
// a million times is exactly the shape the compiled access-function
// tables were built to avoid, and nothing but review pressure
// currently stops it from coming back.
//
// The analyzer flags a call to a per-word Machine method (Read, Write,
// SwapWords, Poke) when (a) the call sits in a for or range loop whose
// induction variable advances by exactly +1 per iteration, and (b) the
// address argument contains that induction variable as an additive
// coefficient-1 term (i, base+i, i+off — not i*w, not 2*i). That is
// precisely the contiguous-interval shape the matching bulk API
// (ReadRange, WriteRange, SwapRange, PokeRange) covers. Strided loops,
// non-unit steps and data-dependent addresses are left alone, as are
// calls inside nested function literals (they run on their own
// schedule). When the loop really must go word-at-a-time — e.g. each
// iteration's address depends on the previous word — justify it with a
// `lint:ignore bulkcharge <reason>` directive.
var BulkCharge = &Analyzer{
	Name:  "bulkcharge",
	Doc:   "per-word hmm charge calls in unit-stride loops should use the bulk *Range APIs",
	Layer: LayerDataflow,
	Run:   runBulkCharge,
}

// bulkFor maps each per-word Machine method to its bulk replacement.
var bulkFor = map[string]string{
	"Read":      "ReadRange",
	"Write":     "WriteRange",
	"SwapWords": "SwapRange",
	"Poke":      "PokeRange",
}

func runBulkCharge(pass *Pass) {
	pkg := pass.Pkg
	if pkg.Info == nil {
		return
	}
	reported := map[token.Pos]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			var indVar *ast.Ident
			switch loop := n.(type) {
			case *ast.ForStmt:
				indVar = unitStrideVar(loop)
				body = loop.Body
			case *ast.RangeStmt:
				// Range loops always advance their key by one.
				if key, ok := loop.Key.(*ast.Ident); ok && key.Name != "_" {
					indVar = key
				}
				body = loop.Body
			default:
				return true
			}
			if indVar == nil {
				return true
			}
			checkLoopBody(pass, body, indVar, reported)
			return true
		})
	}
}

// unitStrideVar returns the induction variable of a for loop whose
// post statement advances it by exactly +1 (i++ or i += 1), or nil.
func unitStrideVar(loop *ast.ForStmt) *ast.Ident {
	switch post := loop.Post.(type) {
	case *ast.IncDecStmt:
		if post.Tok != token.INC {
			return nil
		}
		id, _ := ast.Unparen(post.X).(*ast.Ident)
		return id
	case *ast.AssignStmt:
		if post.Tok != token.ADD_ASSIGN || len(post.Lhs) != 1 || len(post.Rhs) != 1 {
			return nil
		}
		if lit, ok := intLit(post.Rhs[0]); !ok || lit != "1" {
			return nil
		}
		id, _ := ast.Unparen(post.Lhs[0]).(*ast.Ident)
		return id
	}
	return nil
}

// checkLoopBody flags qualifying per-word calls in body. Nested
// function literals are skipped; nested loops are visited here too
// (an outer-variable address inside an inner loop still qualifies),
// with the reported set preventing duplicates when both loops match.
func checkLoopBody(pass *Pass, body *ast.BlockStmt, indVar *ast.Ident, reported map[token.Pos]bool) {
	pkg := pass.Pkg
	v := objectOf(pkg, indVar)
	if v == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call.Pos()] {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		bulk, ok := bulkFor[sel.Sel.Name]
		if !ok || len(call.Args) == 0 {
			return true
		}
		tv, ok := pkg.Info.Types[sel.X]
		if !ok || !isTypeNamed(tv.Type, "internal/hmm", "Machine") {
			return true
		}
		// SwapWords takes two addresses; the others take the address
		// first. Any unit-stride address argument qualifies.
		addrs := call.Args[:1]
		if sel.Sel.Name == "SwapWords" && len(call.Args) >= 2 {
			addrs = call.Args[:2]
		}
		for _, addr := range addrs {
			if linearInVar(pkg, addr, v) {
				reported[call.Pos()] = true
				pass.Reportf(call.Pos(),
					"per-word %s on a unit-stride address inside a +1 loop charges per word — use %s to charge the interval in O(segments)",
					sel.Sel.Name, bulk)
				break
			}
		}
		return true
	})
}

// linearInVar reports whether expr is an additive expression
// containing v exactly once with coefficient 1: v, base+v, v+off,
// base+v-k. Multiplication, division, shifts and repeated occurrences
// (2*v, v+v) disqualify — those strides have no contiguous bulk
// equivalent.
func linearInVar(pkg *Package, expr ast.Expr, v types.Object) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return objectOf(pkg, e) == v
	case *ast.BinaryExpr:
		if e.Op != token.ADD && e.Op != token.SUB {
			return false
		}
		l := linearInVar(pkg, e.X, v)
		// v must not appear in a subtrahend (base - v is a reversed
		// stride) nor on both sides (v+v has coefficient 2).
		r := e.Op == token.ADD && linearInVar(pkg, e.Y, v)
		if l && containsVar(pkg, e.Y, v) {
			return false
		}
		if r && containsVar(pkg, e.X, v) {
			return false
		}
		return l || r
	case *ast.CallExpr:
		// A conversion like int64(i) is transparent; real calls are not.
		if len(e.Args) == 1 && isConversion(pkg, e) {
			return linearInVar(pkg, e.Args[0], v)
		}
	}
	return false
}

// containsVar reports whether v occurs anywhere in expr.
func containsVar(pkg *Package, expr ast.Expr, v types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objectOf(pkg, id) == v {
			found = true
		}
		return !found
	})
	return found
}

// isConversion reports whether call is a type conversion.
func isConversion(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call.Fun]
	return ok && tv.IsType()
}
