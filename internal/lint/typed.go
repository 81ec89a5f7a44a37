// typed.go is the dbspvet typed pass: it upgrades the parse-only
// framework to full go/types information without leaving the standard
// library. Module packages are type-checked from the lint.Load ASTs in
// dependency order through a custom importer; imports that are not part
// of the loaded module (the stdlib, mostly) resolve to empty
// placeholder packages. That trade keeps dbsplint dependency-free and
// fast, at the price of best-effort types: expressions that touch a
// placeholder import have no type, so typed analyzers treat "no type
// info" as "not provable" and stay silent rather than guess.
//
// What the placeholder scheme still delivers, and the analyzers rely
// on:
//
//   - named types of module packages resolve fully, so composite
//     literals of dbsp.Program / dbsp.Superstep are identified by type
//     identity instead of import-name heuristics;
//   - constant folding works for every constant built from literals
//     and module-declared constants (labels, machine sizes, metric
//     names assembled by concatenation);
//   - object identity works across the module (a helper method is
//     recognized at its call sites whatever it is called through);
//   - import references still resolve to a *types.PkgName whose path
//     is the real import path, so "is this time.Now?" is answerable
//     through aliases even though the placeholder "time" is empty.
package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// TypeCheck populates Types and Info for every loaded package, in
// dependency order. It is idempotent: already-checked packages are
// skipped, and Run calls it implicitly. Type-check diagnostics land in
// Package.TypeErrors; with placeholder imports for the stdlib most are
// expected and harmless.
func TypeCheck(pkgs []*Package) {
	if len(pkgs) == 0 {
		return
	}
	tc := &typeChecker{
		byPath:   make(map[string]*Package, len(pkgs)),
		fakes:    map[string]*types.Package{},
		checking: map[string]bool{},
	}
	for _, p := range pkgs {
		tc.byPath[p.Path] = p
	}
	for _, p := range pkgs {
		tc.check(p)
	}
}

// typeChecker drives the dependency-ordered check and doubles as the
// types.Importer the checker resolves imports through.
type typeChecker struct {
	byPath   map[string]*Package
	fakes    map[string]*types.Package
	checking map[string]bool
}

// check type-checks p after its in-module dependencies.
func (tc *typeChecker) check(p *Package) {
	if p.Types != nil || tc.checking[p.Path] {
		return
	}
	tc.checking[p.Path] = true
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if dep, ok := tc.byPath[path]; ok {
				tc.check(dep)
			}
		}
	}
	conf := types.Config{
		Importer:    tc,
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// Check returns a (possibly incomplete) package even on errors;
	// partial information is exactly what the best-effort pass wants.
	tp, _ := conf.Check(p.Path, p.Fset, p.Files, info)
	p.Types, p.Info = tp, info
}

// Import resolves one import path: a loaded module package when
// available, the placeholder otherwise. It never fails — unresolvable
// imports degrade to empty packages instead of aborting the check.
func (tc *typeChecker) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := tc.byPath[path]; ok {
		if p.Types == nil {
			tc.check(p)
		}
		if p.Types != nil {
			return p.Types, nil
		}
	}
	if f, ok := tc.fakes[path]; ok {
		return f, nil
	}
	name := path
	if i := lastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	f := types.NewPackage(path, name)
	f.MarkComplete()
	tc.fakes[path] = f
	return f, nil
}

// constOf returns the folded constant value of e, or nil.
func constOf(p *Package, e ast.Expr) constant.Value {
	if p.Info == nil {
		return nil
	}
	return p.Info.Types[e].Value
}

// constIntOf returns e's value when it folds to an integer constant.
func constIntOf(p *Package, e ast.Expr) (int64, bool) {
	v := constOf(p, e)
	if v == nil || v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// isTypeNamed reports whether t (through one pointer) is the named type
// pkgSuffix.name, where pkgSuffix matches the defining package's import
// path exactly or as a trailing "/"-separated suffix. Suffix matching
// lets the fixture module's mirror packages stand in for the real ones.
func isTypeNamed(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}

// pkgSelCall resolves a call of the form pkg.Fn(...) to the imported
// package's path and the selected name, through the type info — import
// aliases and shadowing are handled, unlike syntactic name matching.
func pkgSelCall(p *Package, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID || p.Info == nil {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// rootIdent peels index, selector, star and paren layers off an
// assignable expression and returns the base identifier, or nil when
// the base is not a plain identifier (a call result, for example).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier through Defs and Uses.
func objectOf(p *Package, id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// posWithin reports whether pos falls inside node's source range.
func posWithin(pos token.Pos, node ast.Node) bool {
	return pos >= node.Pos() && pos <= node.End()
}
