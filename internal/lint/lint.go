// Package lint is a stdlib-only static-analysis framework enforcing
// the repo's simulation invariants: the conventions that the paper's
// guarantees (Theorems 5, 10 and 12) and the test suite's invariants
// lean on but that the compiler cannot check. Each Analyzer inspects
// one convention; cmd/dbsplint runs the whole suite over the module
// and fails CI on any finding.
//
// The framework has four layers. The syntactic analyzers (nilguard,
// panicmsg, exitdiscipline) inspect parse trees only — their invariants
// are purely syntactic disciplines. The dbspvet typed pass (typed.go)
// adds full go/types information through a custom importer that checks
// the module's own packages in dependency order from the Load results,
// resolving out-of-module imports to empty placeholders; the typed
// analyzers (stepshape, stepconfine, costcharge) use it to statically
// prove the paper's Section 2 program discipline, handler state
// confinement and the cost-partition identity.
// The dataflow layer (cfg.go, dataflow.go) builds per-function
// control-flow graphs and reaching definitions on top of the typed
// pass; the dataflow analyzers (sharesafe, lockdiscipline,
// snapshotonly, bulkcharge) use it for the flow-sensitive concurrency
// and cost disciplines the sharded engine refactor depends on
// (DESIGN §10). The interprocedural layer (callgraph.go, summary.go)
// builds the module call graph and bottom-up per-function summaries;
// its analyzers (detflow, floatfold) certify across call chains that no
// nondeterminism source reaches the byte-compared outputs and that
// every charged float64 fold is order-fixed (DESIGN §12). Everything
// stays in the standard library, so dbsplint remains dependency-free
// (go.mod has no requirements) and fast enough to run on every push.
//
// Findings can be suppressed with a justified directive — see
// directive.go for the //lint:ignore form.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Analyzer layers, in framework order: each layer builds on the
// previous one's information.
const (
	// LayerParse analyzers inspect parse trees only.
	LayerParse = "parse"
	// LayerTyped analyzers use the dbspvet go/types pass.
	LayerTyped = "typed"
	// LayerDataflow analyzers run per-function CFG/fixpoint problems.
	LayerDataflow = "dataflow"
	// LayerInterproc analyzers consume the module call graph and the
	// bottom-up per-function summaries.
	LayerInterproc = "interproc"
)

// Analyzer is one named check over a package.
type Analyzer struct {
	// Name identifies the analyzer in findings ("nilguard", ...).
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Layer names the framework layer the analyzer runs on: parse,
	// typed, dataflow, or interproc (dbsplint -list prints it).
	Layer string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(*Pass)
}

// runState is the state one lint.Run shares across every (package,
// analyzer) pass: the finding accumulator, the parsed //lint:ignore
// directives, and the lazily built interprocedural view.
type runState struct {
	findings   []Finding
	directives []*directive
	interproc  *Interproc
}

// Pass is one analyzer's view of one package.
type Pass struct {
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Pkg is the package under inspection.
	Pkg *Package
	// All is every module package in the run (Pkg included), for
	// module-wide analyzers like snapshotonly that chase calls across
	// package boundaries. All packages share one FileSet, so positions
	// from any of them render correctly through Reportf.
	All []*Package
	// run is the shared per-Run state.
	run *runState
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.run.findings = append(p.run.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Interproc returns the run's shared interprocedural view — the module
// call graph and the bottom-up function summaries — building it on
// first use. Analyzers of the interproc layer call this instead of
// constructing their own graph, so the expensive bottom-up pass runs
// once per lint.Run however many packages and analyzers consume it.
func (p *Pass) Interproc() *Interproc {
	if p.run.interproc == nil {
		p.run.interproc = NewInterproc(p.All, p.run.directives)
	}
	return p.run.interproc
}

// Finding is one diagnostic.
type Finding struct {
	// Pos locates the finding (file, line, column).
	Pos token.Position
	// Analyzer names the reporting analyzer.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the finding in the canonical file:line: analyzer:
// message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Run applies every analyzer to every package and returns the findings
// sorted by file, line, then analyzer name. The typed pass runs first
// (idempotently) so typed analyzers see go/types information, and
// //lint:ignore directives are applied before sorting.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	TypeCheck(pkgs)
	rs := &runState{directives: collectDirectives(pkgs)}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, All: pkgs, run: rs})
		}
	}
	findings := applyDirectives(rs.directives, analyzers, rs.findings)
	sort.Slice(findings, func(i, j int) bool {
		fi, fj := findings[i], findings[j]
		if fi.Pos.Filename != fj.Pos.Filename {
			return fi.Pos.Filename < fj.Pos.Filename
		}
		if fi.Pos.Line != fj.Pos.Line {
			return fi.Pos.Line < fj.Pos.Line
		}
		return fi.Analyzer < fj.Analyzer
	})
	return findings
}

// Analyzers returns the full suite in display order: the syntactic
// checks first, then the dbspvet typed pass, the dataflow analyzers,
// and the interprocedural determinism vet.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NilGuard,
		PanicMsg,
		ExitDiscipline,
		StepShape,
		StepConfine,
		CostCharge,
		ShareSafe,
		LockDiscipline,
		SnapshotOnly,
		BulkCharge,
		DetFlow,
		FloatFold,
	}
}

// importName returns the local name under which file imports path, or
// "" when it does not. The default name is the last path segment.
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p := imp.Path.Value // quoted
		if p != `"`+path+`"` {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := lastIndexByte(path, '/'); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// stringLit returns the unquoted value of a string literal expression,
// if e is one.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || len(lit.Value) < 2 {
		return "", false
	}
	// Interpreted and raw strings both keep their prefix verbatim for
	// the characters the analyzers care about (no escapes in package
	// prefixes or metric names).
	return lit.Value[1 : len(lit.Value)-1], true
}

// intLit returns the value of a decimal integer literal expression.
func intLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.INT {
		return "", false
	}
	return lit.Value, true
}

// isPkgCall reports whether call invokes sel from the package imported
// under local name pkgName (e.g. os.Exit, fmt.Sprintf).
func isPkgCall(call *ast.CallExpr, pkgName, sel string) bool {
	s, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == pkgName
}
