// summary.go is the bottom-up half of the interprocedural layer
// (DESIGN §12): per-function summaries computed over the call graph's
// SCCs in callee-first order, so every summary a caller consults is
// already (at least partially) known, and mutual recursion converges
// by iterating each SCC to a fixpoint.
//
// The summary lattice is a per-function taint abstraction. Facts name
// where a value came from: one of the nondeterminism sources the sweep
// contract forbids in outputs (wall-clock reads, global math/rand
// draws, map-iteration order, select scheduling order) or a formal
// parameter (a synthetic marker used to compute parameter→result and
// parameter→sink flow). The intra-function engine is deliberately
// flow-insensitive — facts accumulate monotonically over the whole
// body until stable — which keeps it sound for the "no nondeterminism
// ever reaches an output" property at the cost of flagging code where
// a tainted value is overwritten before the sink; the one idiom that
// would make that cost real, collect-keys-then-sort, gets an explicit
// kill instead (order facts never attach to a slice that is passed to
// a sort/slices call somewhere in the same function).
//
// Soundness caveats, recorded in DESIGN §12: calls through function
// values are propagated conservatively (argument taint flows to the
// result) but their targets are not resolved; reflection is invisible;
// out-of-module callees other than the special-cased stdlib entry
// points (time, math/rand, fmt, errors, sort, slices) propagate
// argument taint to results and are otherwise trusted not to read
// nondeterminism sources; and mutation of receivers through
// out-of-module methods (bytes.Buffer-style sinks) is approximated by
// the Write/WriteString/Encode name rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/det"
)

// SourceKind classifies a taint fact's origin.
type SourceKind int

const (
	// SrcParam marks the synthetic parameter facts summaries are
	// computed from; it never appears in a finding.
	SrcParam SourceKind = iota
	// SrcClock is a wall-clock reading (time.Now, time.Since).
	SrcClock
	// SrcRand is a draw from the shared global math/rand source.
	SrcRand
	// SrcMapOrder is a value whose order derives from ranging a map.
	SrcMapOrder
	// SrcSelOrder is a value whose identity depends on select
	// scheduling among multiple ready cases.
	SrcSelOrder
)

// String names the source the way findings spell it.
func (k SourceKind) String() string {
	switch k {
	case SrcClock:
		return "a wall-clock reading"
	case SrcRand:
		return "a global math/rand draw"
	case SrcMapOrder:
		return "map-iteration order"
	case SrcSelOrder:
		return "select scheduling order"
	}
	return "a parameter"
}

// fact is one taint fact: a value derives from kind (read at pos,
// possibly inside callee via) or from formal parameter param.
type fact struct {
	kind  SourceKind
	param int
	pos   token.Position
	via   string // first module callee the taint crossed; "" when local
}

// key dedups facts; via is deliberately excluded so a fact reached
// over two call paths stays one fact and the fixpoint terminates.
func (f fact) key() string {
	return fmt.Sprintf("%d|%d|%s:%d", f.kind, f.param, f.pos.Filename, f.pos.Line)
}

// describe renders the fact for a finding message.
func (f fact) describe() string {
	s := fmt.Sprintf("%s (%s)", f.kind, shortPos(f.pos))
	if f.via != "" {
		s += " via " + f.via
	}
	return s
}

// shortPos renders a position as base-filename:line.
func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// factSet is a deduplicated set of facts.
type factSet map[string]fact

func (s factSet) add(f fact) bool {
	k := f.key()
	if _, ok := s[k]; ok {
		return false
	}
	s[k] = f
	return true
}

func (s factSet) union(o factSet) bool {
	changed := false
	for _, f := range o {
		if s.add(f) {
			changed = true
		}
	}
	return changed
}

// sinkUse records that something reaches a determinism sink: what the
// sink is (for messages) and where.
type sinkUse struct {
	desc string
	pos  token.Position
}

// Summary is one function's interprocedural abstraction.
type Summary struct {
	// Results holds the non-parameter facts carried by any result
	// value: sources the function reads that flow out of it.
	Results factSet
	// ParamToResult[i] reports that parameter i (receiver first for
	// methods) flows into a result.
	ParamToResult []bool
	// ParamToSink[i] is non-nil when parameter i reaches an emission,
	// error-string, or float-accumulation sink inside the function.
	ParamToSink []*sinkUse
	// Emits is non-nil when calling the function writes ordered output
	// (prints, sends, byte-stream writes), directly or transitively —
	// calling it while ranging a map leaks iteration order.
	Emits *sinkUse
	// Accum is non-nil when calling the function adds to a float64
	// accumulation visible to the caller (receiver field, pointer
	// target, package variable), directly or transitively — calling it
	// from contexts with varying order reassociates the fold.
	Accum *sinkUse
	// AccumOwner is the parameter index (receiver-first) whose value
	// owns the accumulator, or -1 when the accumulator is a package
	// variable and therefore shared by every call.
	AccumOwner int
}

func newSummary(nparams int) *Summary {
	return &Summary{
		Results:       factSet{},
		ParamToResult: make([]bool, nparams),
		ParamToSink:   make([]*sinkUse, nparams),
	}
}

// fingerprint is a change detector for the SCC fixpoint.
func (s *Summary) fingerprint() string {
	var b strings.Builder
	b.WriteString(strings.Join(det.SortedKeys(s.Results), ","))
	for i := range s.ParamToResult {
		fmt.Fprintf(&b, "|r%d=%t", i, s.ParamToResult[i])
		if s.ParamToSink[i] != nil {
			fmt.Fprintf(&b, "s%s", s.ParamToSink[i].desc)
		}
	}
	if s.Emits != nil {
		b.WriteString("|E" + s.Emits.desc)
	}
	if s.Accum != nil {
		fmt.Fprintf(&b, "|A%d%s", s.AccumOwner, s.Accum.desc)
	}
	return b.String()
}

// rawFinding is a finding computed during summary construction,
// replayed later by the owning analyzer's per-package Run.
type rawFinding struct {
	pos token.Pos
	msg string
}

// Interproc is the shared interprocedural view one lint.Run builds
// lazily on first use (Pass.Interproc): the call graph, the stable
// summaries, and the det/fold findings keyed by package.
type Interproc struct {
	// Graph is the module call graph.
	Graph *CallGraph
	// Summaries maps every module function to its stable summary.
	Summaries map[*types.Func]*Summary

	det  map[*Package][]rawFinding
	fold map[*Package][]rawFinding
}

// NewInterproc builds the call graph over pkgs, runs the bottom-up
// summary pass (iterating each SCC to a fixpoint for mutual
// recursion), then computes the detflow/floatfold findings in one
// final reporting pass. directives are consulted at fact-creation
// time, so a //lint:ignore on a nondeterminism source inside a callee
// suppresses the caller-side findings it would otherwise induce.
func NewInterproc(pkgs []*Package, directives []*directive) *Interproc {
	ip := &Interproc{
		Graph:     NewCallGraph(pkgs),
		Summaries: map[*types.Func]*Summary{},
		det:       map[*Package][]rawFinding{},
		fold:      map[*Package][]rawFinding{},
	}
	for _, scc := range ip.Graph.SCCs {
		// Singleton SCCs stabilize in one pass; cyclic ones iterate
		// until no summary changes. The lattice is finite (facts are
		// keyed by source position), so this terminates; the cap is a
		// belt-and-suspenders bound.
		for iter := 0; iter < 32; iter++ {
			changed := false
			for _, node := range scc {
				s, _, _ := ip.scanFunc(node, directives)
				if old := ip.Summaries[node.Fn]; old == nil || old.fingerprint() != s.fingerprint() {
					ip.Summaries[node.Fn] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	for _, node := range ip.Graph.order {
		_, det, fold := ip.scanFunc(node, directives)
		ip.det[node.Pkg] = append(ip.det[node.Pkg], det...)
		ip.fold[node.Pkg] = append(ip.fold[node.Pkg], fold...)
	}
	return ip
}

// sum returns fn's current summary, or an empty one for SCC peers not
// yet computed.
func (ip *Interproc) sum(fn *types.Func) *Summary {
	if s := ip.Summaries[fn]; s != nil {
		return s
	}
	return &Summary{Results: factSet{}}
}

// contexts the statement walk tracks.
type ctxKind int

const (
	ctxMapRange ctxKind = iota
	ctxChanRange
	ctxSelect
	ctxGo
)

func (k ctxKind) String() string {
	switch k {
	case ctxMapRange:
		return "map-range"
	case ctxChanRange:
		return "channel-range"
	case ctxSelect:
		return "multi-case select"
	}
	return "goroutine"
}

type ctxFrame struct {
	kind ctxKind
	node ast.Node
	free map[types.Object]bool // captured variables, ctxGo only
}

// scanFunc runs the flow-insensitive taint engine over node's body and
// returns its summary plus the detflow and floatfold findings located
// in it. During the SCC fixpoint the findings are discarded; the final
// reporting pass keeps them.
func (ip *Interproc) scanFunc(node *FuncNode, directives []*directive) (*Summary, []rawFinding, []rawFinding) {
	pkg := node.Pkg
	params := paramObjs(pkg, node.Decl)
	sum := newSummary(len(params))
	if pkg.Info == nil {
		return sum, nil, nil
	}
	fset := pkg.Fset
	paramIndex := map[types.Object]int{}
	taint := map[types.Object]factSet{}
	for i, p := range params {
		if p != nil {
			paramIndex[p] = i
			taint[p] = factSet{}
			taint[p].add(fact{kind: SrcParam, param: i})
		}
	}
	sorted := sortedTargets(pkg, node.Decl.Body)
	// Module callees per call site, from the graph edges (covers both
	// direct calls and devirtualized interface calls).
	targets := map[*ast.CallExpr][]*FuncNode{}
	for _, cs := range node.Calls {
		if cs.Call != nil {
			targets[cs.Call] = append(targets[cs.Call], cs.Callee)
		}
	}

	detSeen, foldSeen := map[string]bool{}, map[string]bool{}
	var det, fold []rawFinding
	reportDet := func(pos token.Pos, format string, args ...any) {
		f := rawFinding{pos: pos, msg: fmt.Sprintf(format, args...)}
		k := fmt.Sprintf("%d|%s", pos, f.msg)
		if !detSeen[k] {
			detSeen[k] = true
			det = append(det, f)
		}
	}
	reportFold := func(pos token.Pos, format string, args ...any) {
		f := rawFinding{pos: pos, msg: fmt.Sprintf(format, args...)}
		k := fmt.Sprintf("%d|%s", pos, f.msg)
		if !foldSeen[k] {
			foldSeen[k] = true
			fold = append(fold, f)
		}
	}

	var ctxs []ctxFrame
	orderCtx := func() *ctxFrame {
		for i := len(ctxs) - 1; i >= 0; i-- {
			if ctxs[i].kind != ctxGo {
				return &ctxs[i]
			}
		}
		return nil
	}
	goCtx := func() *ctxFrame {
		for i := len(ctxs) - 1; i >= 0; i-- {
			if ctxs[i].kind == ctxGo {
				return &ctxs[i]
			}
		}
		return nil
	}
	litDepth := 0 // >0 while inside a func literal: returns there are not node's returns

	declaredWithin := func(obj types.Object, n ast.Node) bool {
		return obj != nil && posWithin(obj.Pos(), n)
	}
	pkgLevel := func(obj types.Object) bool {
		return obj != nil && pkg.Types != nil && obj.Parent() == pkg.Types.Scope()
	}

	// addTaint attaches facts to obj, applying the sort kill: order
	// facts never attach to a variable that is sorted somewhere in
	// this function (the collect-then-sort idiom).
	addTaint := func(obj types.Object, facts factSet) bool {
		if obj == nil || len(facts) == 0 {
			return false
		}
		t := taint[obj]
		if t == nil {
			t = factSet{}
			taint[obj] = t
		}
		changed := false
		for _, f := range facts {
			if sorted[obj] && (f.kind == SrcMapOrder || f.kind == SrcSelOrder) {
				continue
			}
			if t.add(f) {
				changed = true
			}
		}
		return changed
	}

	var eval func(e ast.Expr) factSet
	var evalCall func(call *ast.CallExpr) factSet

	// sinkArgs checks call arguments against a sink: source facts
	// become detflow findings, parameter facts become ParamToSink.
	sinkArgs := func(pos token.Pos, desc string, args []ast.Expr) {
		for _, arg := range args {
			for _, f := range eval(arg) {
				if f.kind == SrcParam {
					if sum.ParamToSink[f.param] == nil {
						sum.ParamToSink[f.param] = &sinkUse{desc: desc, pos: fset.Position(pos)}
					}
					continue
				}
				reportDet(pos,
					"value tainted by %s reaches %s: nondeterminism in output breaks the byte-identical sweep contract (sort, seed, or //lint:ignore detflow with a reason)",
					f.describe(), desc)
			}
		}
	}

	// markEmits records that this function writes ordered output,
	// unless the write site carries a detflow ignore.
	markEmits := func(pos token.Pos, desc string) {
		if sum.Emits == nil && !suppressedAt(directives, fset.Position(pos), "detflow") {
			sum.Emits = &sinkUse{desc: desc, pos: fset.Position(pos)}
		}
	}
	// markAccum records a caller-visible float accumulation owned by
	// parameter owner (-1: a package variable), unless the site
	// carries a floatfold ignore.
	markAccum := func(pos token.Pos, desc string, owner int) {
		if sum.Accum == nil && !suppressedAt(directives, fset.Position(pos), "floatfold") {
			sum.Accum = &sinkUse{desc: desc, pos: fset.Position(pos)}
			sum.AccumOwner = owner
		}
	}

	// exprVarObjs collects the non-field variables an expression
	// mentions — the objects whose scope/capture decides whether an
	// accumulator outlives a loop body or crosses into a goroutine.
	exprVarObjs := func(e ast.Expr) []*types.Var {
		var out []*types.Var
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := objectOf(pkg, id).(*types.Var); ok && !v.IsField() {
					out = append(out, v)
				}
			}
			return true
		})
		return out
	}

	// receiverAndArgs aligns a call's actual expressions with the
	// callee's paramObjs indexing (receiver first for methods).
	receiverAndArgs := func(call *ast.CallExpr, callee *FuncNode) []ast.Expr {
		if callee.Decl.Recv != nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return append([]ast.Expr{sel.X}, call.Args...)
			}
		}
		return call.Args
	}

	// moduleCall handles one resolved module callee: result taint,
	// param→sink propagation, Emits/Accum context rules.
	moduleCall := func(call *ast.CallExpr, callee *FuncNode, out factSet) {
		cs := ip.sum(callee.Fn)
		name := callee.Fn.Name()
		actuals := receiverAndArgs(call, callee)
		for _, f := range cs.Results {
			if f.via == "" {
				f.via = name
			}
			out.add(f)
		}
		for i, actual := range actuals {
			// Clamp for variadic trailing arguments: they all land on
			// the final parameter.
			idx := i
			if idx >= len(cs.ParamToResult) {
				idx = len(cs.ParamToResult) - 1
			}
			if idx < 0 {
				break
			}
			if cs.ParamToResult[idx] {
				out.union(eval(actual))
			}
			if sk := cs.ParamToSink[idx]; sk != nil {
				for _, f := range eval(actual) {
					if f.kind == SrcParam {
						if sum.ParamToSink[f.param] == nil {
							sum.ParamToSink[f.param] = &sinkUse{desc: sk.desc, pos: fset.Position(call.Pos())}
						}
						continue
					}
					reportDet(call.Pos(),
						"argument to %s is tainted by %s and reaches %s inside it (%s): nondeterminism in output breaks the byte-identical sweep contract",
						name, f.describe(), sk.desc, shortPos(sk.pos))
				}
			}
		}
		if cs.Emits != nil {
			if fr := orderCtx(); fr != nil && fr.kind == ctxMapRange {
				reportDet(call.Pos(),
					"call to %s, which emits output (%s at %s), inside a map range: records land in randomized iteration order; iterate sorted keys instead",
					name, cs.Emits.desc, shortPos(cs.Emits.pos))
			}
			markEmits(call.Pos(), "a call to "+name)
		}
		if cs.Accum != nil {
			// The actual expression that owns the accumulator: the
			// value passed for the callee's AccumOwner parameter.
			// A package-level accumulator (owner -1) is shared with
			// every context unconditionally.
			shared := cs.AccumOwner < 0
			var ownerVars []*types.Var
			var ownerExpr ast.Expr
			if !shared && cs.AccumOwner < len(actuals) {
				ownerExpr = actuals[cs.AccumOwner]
				ownerVars = exprVarObjs(ownerExpr)
			}
			if fr := orderCtx(); fr != nil {
				escapes := shared
				for _, v := range ownerVars {
					if !declaredWithin(v, fr.node) {
						escapes = true
					}
				}
				if escapes {
					reportFold(call.Pos(),
						"call to %s, which accumulates float64 cost (%s) into an accumulator that outlives the loop, inside a %s body: the fold order follows randomized iteration, so sums can reassociate; fold over a sorted order instead",
						name, shortPos(cs.Accum.pos), fr.kind)
				}
			}
			if fr := goCtx(); fr != nil {
				captured := shared
				capName := "a package variable"
				for _, v := range ownerVars {
					if fr.free[v] {
						captured = true
						capName = v.Name()
					}
				}
				if captured {
					reportFold(call.Pos(),
						"goroutine calls %s, which accumulates float64 cost (%s), on captured %q: partials fold in completion order, which reassociates the sum; merge per-worker partials in a fixed order instead",
						name, shortPos(cs.Accum.pos), capName)
				}
			}
			// Propagate: this function is itself an accumulator when
			// the owner value is reachable from its own parameters
			// (taint decides, so call-result receivers like
			// r.FloatCounter(name) still trace back to r) or is
			// package-level.
			if shared {
				markAccum(call.Pos(), "a call to "+name, -1)
			} else if ownerExpr != nil {
				owner := -2 // not caller-visible: function-local accumulator
				for _, v := range ownerVars {
					if pkgLevel(v) {
						owner = -1
					}
				}
				for _, f := range eval(ownerExpr) {
					if f.kind == SrcParam {
						owner = f.param
						break
					}
				}
				if owner != -2 {
					markAccum(call.Pos(), "a call to "+name, owner)
				}
			}
		}
	}

	evalCall = func(call *ast.CallExpr) factSet {
		out := factSet{}
		// A dbsp message send is a sink whether or not Send resolves to
		// a module function: delivery order and payloads feed every
		// later superstep and its charged cost.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Send" &&
			isTypeNamed(pkg.Info.TypeOf(sel.X), "internal/dbsp", "Ctx") {
			sinkArgs(call.Pos(), "a dbsp message send", call.Args)
		}
		if tgts := targets[call]; len(tgts) > 0 {
			for _, t := range tgts {
				moduleCall(call, t, out)
			}
			return out
		}
		if path, name, ok := pkgSelCall(pkg, call); ok {
			switch {
			case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
				p := fset.Position(call.Pos())
				if !suppressedAt(directives, p, "detflow") {
					out.add(fact{kind: SrcClock, pos: p})
				}
				return out
			case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name]:
				p := fset.Position(call.Pos())
				if !suppressedAt(directives, p, "detflow") {
					out.add(fact{kind: SrcRand, pos: p})
				}
				return out
			case path == "sort" || path == "slices":
				// Sorting restores a canonical order; results carry no
				// order taint (the sortedTargets kill covers in-place
				// variants).
				return out
			case path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
				sinkArgs(call.Pos(), "printed output", call.Args)
				markEmits(call.Pos(), "fmt."+name)
				return out
			case path == "fmt" && name == "Errorf", path == "errors" && name == "New":
				sinkArgs(call.Pos(), "an error string (golden files compare these)", call.Args)
				return out
			}
			// Other stdlib calls (fmt.Sprintf, strconv, strings, ...):
			// conservative argument→result propagation.
			for _, a := range call.Args {
				out.union(eval(a))
			}
			return out
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := objectOf(pkg, id).(*types.Builtin); isBuiltin {
				switch id.Name {
				case "len", "cap", "make", "new", "delete", "clear", "copy":
					// Length/allocation are order-insensitive.
					return out
				}
				for _, a := range call.Args {
					out.union(eval(a)) // append, min, max
				}
				return out
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Encode", "Write", "WriteString":
				// Byte-stream sinks on out-of-module values (json
				// encoders, io.Writers) — name-based, see caveats.
				sinkArgs(call.Pos(), "byte-stream output ("+sel.Sel.Name+")", call.Args)
				markEmits(call.Pos(), sel.Sel.Name)
				return out
			}
			// Unknown method: propagate receiver and argument taint
			// (time.Duration.Milliseconds and friends).
			out.union(eval(sel.X))
		}
		for _, a := range call.Args {
			out.union(eval(a))
		}
		return out
	}

	eval = func(e ast.Expr) factSet {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if t := taint[objectOf(pkg, x)]; t != nil {
				out := factSet{}
				out.union(t)
				return out
			}
		case *ast.BinaryExpr:
			out := eval(x.X)
			out.union(eval(x.Y))
			return out
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				// A plain channel receive is deterministic for the
				// single-sender pipelines the engines use; select
				// scheduling is what taints (see CommClause below).
				return factSet{}
			}
			return eval(x.X)
		case *ast.StarExpr:
			return eval(x.X)
		case *ast.IndexExpr:
			return eval(x.X)
		case *ast.SliceExpr:
			return eval(x.X)
		case *ast.TypeAssertExpr:
			return eval(x.X)
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					return factSet{}
				}
			}
			return eval(x.X)
		case *ast.CompositeLit:
			out := factSet{}
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					out.union(eval(kv.Value))
					continue
				}
				out.union(eval(el))
			}
			return out
		case *ast.CallExpr:
			return evalCall(x)
		}
		return factSet{}
	}

	isFloat := func(e ast.Expr) bool {
		t := pkg.Info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Float64 || b.Kind() == types.Float32)
	}

	// handleAccumulate applies the floatfold context rules and the
	// detflow tainted-cost sink to one `lhs += rhs` float fold.
	handleAccumulate := func(pos token.Pos, lhs ast.Expr, rhs ast.Expr) {
		id := rootIdent(lhs)
		var obj types.Object
		if id != nil {
			obj = objectOf(pkg, id)
		}
		if fr := orderCtx(); fr != nil && !declaredWithin(obj, fr.node) {
			name := "<expr>"
			if id != nil {
				name = id.Name
			}
			reportFold(pos,
				"float64 accumulation into %q inside a %s body: iteration order is randomized, so this fold can reassociate run to run; fold over a sorted order or collect per-key partials (engineLoop is the sanctioned single-chain fold)",
				name, fr.kind)
		}
		if fr := goCtx(); fr != nil && obj != nil && fr.free[obj] {
			reportFold(pos,
				"float64 accumulation into captured %q from a goroutine: workers fold in completion order, which reassociates the sum; accumulate per-worker partials and merge them in a fixed order",
				id.Name)
		}
		sinkArgs(pos, "a float64 cost accumulation", []ast.Expr{rhs})
		// Caller-visible targets make the whole function an
		// accumulator: fields/derefs reached from a parameter or
		// receiver, and package-level variables.
		if pkgLevel(obj) {
			markAccum(pos, "+= at "+shortPos(fset.Position(pos)), -1)
		} else if pi, viaParam := paramIndex[obj]; viaParam && !isPlainIdent(lhs) {
			// A field/deref of a parameter or receiver: the caller's
			// value accumulates. A plain `p += x` on a by-value
			// parameter stays local and does not count.
			markAccum(pos, "+= at "+shortPos(fset.Position(pos)), pi)
		}
	}

	handleAssign := func(x *ast.AssignStmt) {
		if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isFloat(x.Lhs[0]) {
			handleAccumulate(x.Pos(), x.Lhs[0], x.Rhs[0])
		}
		if x.Tok == token.ASSIGN && len(x.Lhs) == 1 && len(x.Rhs) == 1 && isFloat(x.Lhs[0]) {
			// x = x + e is the spelled-out form of the same fold.
			if bin, ok := ast.Unparen(x.Rhs[0]).(*ast.BinaryExpr); ok && bin.Op == token.ADD {
				lid := rootIdent(x.Lhs[0])
				if lid != nil {
					lobj := objectOf(pkg, lid)
					for _, side := range []ast.Expr{bin.X, bin.Y} {
						if sid := rootIdent(ast.Unparen(side)); sid != nil && objectOf(pkg, sid) == lobj {
							handleAccumulate(x.Pos(), x.Lhs[0], x.Rhs[0])
							break
						}
					}
				}
			}
		}
		// Taint generation. A tuple assignment from one call applies
		// the call's facts to every target.
		var shared factSet
		if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
			shared = eval(x.Rhs[0])
		}
		for i, lhs := range x.Lhs {
			id := rootIdent(lhs)
			if id == nil {
				continue
			}
			obj := objectOf(pkg, id)
			facts := shared
			if facts == nil && i < len(x.Rhs) {
				facts = eval(x.Rhs[i])
			}
			// Storing into a map launders order facts: inserting the
			// same key/value pairs in any iteration order builds the
			// identical map, so only data taint (clock, rand, params)
			// survives the write. Slices keep order facts — an indexed
			// store at a loop-carried position encodes the order.
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && facts != nil {
				if t := pkg.Info.TypeOf(idx.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						kept := factSet{}
						for _, f := range facts {
							if f.kind != SrcMapOrder && f.kind != SrcSelOrder {
								kept.add(f)
							}
						}
						facts = kept
					}
				}
			}
			// Plain = would kill the old facts under a flow-sensitive
			// scheme; flow-insensitivity keeps the union (sound).
			addTaint(obj, facts)
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			// Loop variables inherit the ranged value's own taint
			// (element taint: ranging a clock-derived slice yields
			// clock-derived elements) — except over channels, where
			// the received values are the senders' (see UnaryExpr).
			elemFacts := factSet{}
			isChan := false
			if t := pkg.Info.TypeOf(x.X); t != nil {
				_, isChan = t.Underlying().(*types.Chan)
			}
			if !isChan {
				elemFacts.union(eval(x.X))
			}
			if isMapRange(pkg, x) {
				p := fset.Position(x.Pos())
				if !suppressedAt(directives, p, "detflow") {
					elemFacts.add(fact{kind: SrcMapOrder, pos: p})
				}
				ctxs = append(ctxs, ctxFrame{kind: ctxMapRange, node: x})
			} else if isChan {
				ctxs = append(ctxs, ctxFrame{kind: ctxChanRange, node: x})
			} else {
				for _, e := range []ast.Expr{x.Key, x.Value} {
					if id, ok := e.(*ast.Ident); ok {
						addTaint(objectOf(pkg, id), elemFacts)
					}
				}
				ast.Inspect(x.X, walk)
				ast.Inspect(x.Body, walk)
				return false
			}
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if id, ok := e.(*ast.Ident); ok {
					addTaint(objectOf(pkg, id), elemFacts)
				}
			}
			ast.Inspect(x.X, walk)
			ast.Inspect(x.Body, walk)
			ctxs = ctxs[:len(ctxs)-1]
			return false
		case *ast.SelectStmt:
			comm := 0
			for _, cl := range x.Body.List {
				if c, ok := cl.(*ast.CommClause); ok && c.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				p := fset.Position(x.Pos())
				if !suppressedAt(directives, p, "detflow") {
					for _, cl := range x.Body.List {
						c, ok := cl.(*ast.CommClause)
						if !ok || c.Comm == nil {
							continue
						}
						if asg, ok := c.Comm.(*ast.AssignStmt); ok {
							for _, lhs := range asg.Lhs {
								if id, ok := lhs.(*ast.Ident); ok {
									addTaint(objectOf(pkg, id), factSet{"": {kind: SrcSelOrder, pos: p}})
								}
							}
						}
					}
				}
				ctxs = append(ctxs, ctxFrame{kind: ctxSelect, node: x})
				ast.Inspect(x.Body, walk)
				ctxs = ctxs[:len(ctxs)-1]
				return false
			}
			return true
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				free := map[types.Object]bool{}
				for _, v := range FreeVars(pkg, node.Decl, lit) {
					free[v] = true
				}
				ctxs = append(ctxs, ctxFrame{kind: ctxGo, node: lit, free: free})
				litDepth++
				ast.Inspect(lit.Body, walk)
				litDepth--
				ctxs = ctxs[:len(ctxs)-1]
				for _, a := range x.Call.Args {
					eval(a)
				}
				return false
			}
			// go f(...): f runs concurrently; if it accumulates
			// caller-visible float cost, completion order reassociates.
			for _, t := range targets[x.Call] {
				if cs := ip.sum(t.Fn); cs.Accum != nil {
					reportFold(x.Pos(),
						"go %s: the callee accumulates float64 cost (%s) into caller-visible state, and goroutines complete in scheduling order; merge per-worker partials in a fixed order instead",
						t.Fn.Name(), shortPos(cs.Accum.pos))
				}
			}
			eval(x.Call)
			return false
		case *ast.FuncLit:
			litDepth++
			ast.Inspect(x.Body, walk)
			litDepth--
			return false
		case *ast.AssignStmt:
			handleAssign(x)
			return true
		case *ast.ValueSpec:
			for i, nm := range x.Names {
				var facts factSet
				if len(x.Values) == 1 && len(x.Names) > 1 {
					facts = eval(x.Values[0])
				} else if i < len(x.Values) {
					facts = eval(x.Values[i])
				}
				addTaint(objectOf(pkg, nm), facts)
			}
			return true
		case *ast.ReturnStmt:
			if litDepth > 0 {
				return true
			}
			if len(x.Results) == 0 {
				// Naked return: named results carry whatever taint
				// they accumulated.
				if node.Decl.Type.Results != nil {
					for _, f := range node.Decl.Type.Results.List {
						for _, nm := range f.Names {
							for _, fa := range taint[objectOf(pkg, nm)] {
								if fa.kind == SrcParam {
									sum.ParamToResult[fa.param] = true
								} else {
									sum.Results.add(fa)
								}
							}
						}
					}
				}
				return true
			}
			for _, r := range x.Results {
				for _, f := range eval(r) {
					if f.kind == SrcParam {
						sum.ParamToResult[f.param] = true
					} else {
						sum.Results.add(f)
					}
				}
			}
			return true
		case *ast.CallExpr:
			eval(x)
			return true
		}
		return true
	}

	// Seed the summaries the syntax cannot reveal: obs FloatCounter.Add
	// folds float64 through an atomic bit-cast CAS loop rather than a
	// `+=`, but it is an order-sensitive accumulation all the same.
	if knownAccum(node) {
		markAccum(node.Decl.Name.Pos(), "an atomic bit-cast float accumulate", 0)
	}

	// Iterate the walk to a fixpoint: facts only accumulate, so the
	// loop terminates; findings dedup via reportDet/reportFold.
	for iter := 0; iter < 16; iter++ {
		before := taintSize(taint)
		fpBefore := sum.fingerprint()
		ast.Inspect(node.Decl.Body, walk)
		if taintSize(taint) == before && sum.fingerprint() == fpBefore {
			break
		}
	}
	sort.Slice(det, func(i, j int) bool { return det[i].pos < det[j].pos })
	sort.Slice(fold, func(i, j int) bool { return fold[i].pos < fold[j].pos })
	return sum, det, fold
}

// globalRandFuncs are the math/rand and math/rand/v2 package-level
// functions that draw from the shared global source. Constructors
// (New, NewSource, NewPCG, NewChaCha8, NewZipf) are the approved
// deterministic path and are absent.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// v2 spellings
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "UintN": true, "Uint": true, "Uint32N": true, "Uint64N": true,
}

// isMapRange reports whether the range statement iterates a map.
func isMapRange(p *Package, rng *ast.RangeStmt) bool {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func taintSize(taint map[types.Object]factSet) int {
	n := 0
	for _, s := range taint {
		n += len(s)
	}
	return n
}

func isPlainIdent(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.Ident)
	return ok
}

// paramObjs lists a function's receiver (if any) then parameters, the
// indexing Summary.ParamToResult/ParamToSink use. Unnamed parameters
// hold their index with a nil object.
func paramObjs(pkg *Package, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, nm := range f.Names {
				out = append(out, objectOf(pkg, nm))
			}
		}
	}
	add(decl.Recv)
	add(decl.Type.Params)
	return out
}

// knownAccum reports whether node is a module function whose float
// accumulation hides from the `+=` detector behind atomics: the obs
// FloatCounter.Add CAS loop. The receiver (parameter 0) owns the sum.
func knownAccum(node *FuncNode) bool {
	if node.Fn.Name() != "Add" {
		return false
	}
	sig, ok := node.Fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isTypeNamed(sig.Recv().Type(), "internal/obs", "FloatCounter")
}

// sortedTargets collects the objects restored to a canonical order
// somewhere in body: arguments of sort.*/slices.* calls and variables
// assigned from their results. Order facts never attach to them.
func sortedTargets(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(e ast.Expr) {
		arg := ast.Unparen(e)
		// Unwrap one conversion/constructor layer: sort.Sort(byName(s)).
		if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 {
			arg = ast.Unparen(inner.Args[0])
		}
		if id := rootIdent(arg); id != nil {
			if obj := objectOf(pkg, id); obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if path, _, ok := pkgSelCall(pkg, x); ok && (path == "sort" || path == "slices") && len(x.Args) > 0 {
				mark(x.Args[0])
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if path, _, ok := pkgSelCall(pkg, call); ok && (path == "sort" || path == "slices") && i < len(x.Lhs) {
					mark(x.Lhs[i])
				}
			}
		}
		return true
	})
	return out
}
