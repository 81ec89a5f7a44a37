// cfg.go is the dbspvet dataflow layer: an intra-procedural CFG over
// go/ast, built per function body, that the flow-sensitive analyzer
// (lockdiscipline) traverses the way the flow-insensitive ones
// traverse TypesInfo. The graph is deliberately source-level — blocks
// hold the original ast.Node statements and the condition/header
// expressions of compound statements — so analyzer transfer functions
// inspect exactly the syntax the finding will be reported against.
//
// Shape conventions:
//
//   - Blocks[0] is the entry block; Exit is a distinguished empty block
//     every return (and panic) edge targets.
//   - Compound statements contribute only their headers to blocks: an
//     if contributes Init and Cond, a for contributes Init/Cond/Post, a
//     range contributes its X expression and then the RangeStmt node
//     itself (standing for the per-iteration key/value definition), a
//     switch contributes Init/Tag. Their bodies become successor
//     blocks, so walking a block's nodes never descends into nested
//     statement lists.
//   - Function literals are opaque: a FuncLit appearing in a block node
//     is a value, not control flow. Analyzers build a separate CFG per
//     literal body.
//   - Statements after a terminator (return, break, goto, panic) land
//     in a fresh block with no predecessors, so unreachable code still
//     has nodes (solvers give those blocks the problem's Unreachable
//     state).
//
// The companion generic solver, SolveForward, runs any forward
// dataflow problem to fixpoint over the graph; lockdiscipline's
// must-hold lock sets are one such problem.
package lint

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line node sequence with
// a single entry and a set of successor edges.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0).
	Index int
	// Nodes holds the block's statements and header expressions in
	// execution order.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
	// Preds are the reverse edges, filled after construction.
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block in creation order; Blocks[0] is Entry.
	Blocks []*Block
	// Entry is the block function execution starts in.
	Entry *Block
	// Exit is the distinguished empty block reached by falling off the
	// end of the body, returning, or panicking.
	Exit *Block
}

// NewCFG builds the control-flow graph of body. A nil body (external
// function) yields a graph with only an empty entry wired to exit.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*labelFrame{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.cfg.Exit)
	for _, g := range b.gotos {
		if lf := b.labels[g.label]; lf != nil && lf.start != nil {
			b.edge(g.from, lf.start)
		}
	}
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

// loopFrame is one enclosing breakable/continuable construct.
type loopFrame struct {
	label     string
	brk, cont *Block // cont is nil for switch/select frames
	isLoop    bool
}

// labelFrame resolves a label to its goto target and (once the labeled
// statement is a loop/switch) its frame.
type labelFrame struct {
	start *Block
	frame *loopFrame
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminator.
	cur *Block
	// frames is the stack of enclosing loops/switches/selects.
	frames []*loopFrame
	// fallthroughTarget is the next case clause's block while building
	// a switch clause body.
	fallthroughTarget *Block
	// pendingLabel is the label naming the next loop/switch statement.
	pendingLabel string
	labels       map[string]*labelFrame
	gotos        []pendingGoto
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, opening a fresh unreachable
// block when the previous statement terminated control flow.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump ends the current block with an edge to target.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = nil
}

// startBlock begins a new block reachable from the current one.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(f *loopFrame) {
	b.frames = append(b.frames, f)
	if f.label != "" {
		if lf := b.labels[f.label]; lf != nil {
			lf.frame = f
		}
	}
}

func (b *cfgBuilder) popFrame() {
	b.frames = b.frames[:len(b.frames)-1]
}

// findFrame resolves a break/continue target: the innermost matching
// frame, or the labeled one.
func (b *cfgBuilder) findFrame(label string, needLoop bool) *loopFrame {
	if label != "" {
		if lf := b.labels[label]; lf != nil {
			return lf.frame
		}
		return nil
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		if !needLoop || b.frames[i].isLoop {
			return b.frames[i]
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		start := b.startBlock()
		b.labels[s.Label.Name] = &labelFrame{start: start}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		cond := b.cur
		if cond == nil {
			cond = b.startBlock()
		}
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.jump(after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		b.add(s.Init)
		head := b.startBlock()
		b.add(s.Cond)
		after := b.newBlock()
		if s.Cond != nil {
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.pushFrame(&loopFrame{label: label, brk: after, cont: cont, isLoop: true})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(cont)
		if post != nil {
			b.cur = post
			b.add(s.Post)
			b.jump(head)
		}
		b.popFrame()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.startBlock()
		// The RangeStmt node stands for the per-iteration key/value
		// definition; solvers treat it shallowly (see scanBlockNode).
		b.add(s)
		after := b.newBlock()
		b.edge(head, after)
		body := b.newBlock()
		b.edge(head, body)
		b.pushFrame(&loopFrame{label: label, brk: after, cont: head, isLoop: true})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(head)
		b.popFrame()
		b.cur = after

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		if head == nil {
			head = b.startBlock()
		}
		after := b.newBlock()
		b.pushFrame(&loopFrame{label: label, brk: after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			b.add(cc.Comm)
			b.stmtList(cc.Body)
			b.jump(after)
		}
		if len(s.Body.List) == 0 {
			// select{} blocks forever; keep an edge so the graph stays
			// connected for solvers.
			b.edge(head, after)
		}
		b.popFrame()
		b.cur = after

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(label, false); f != nil {
				b.jump(f.brk)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if f := b.findFrame(label, true); f != nil && f.cont != nil {
				b.jump(f.cont)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			from := b.cur
			if from == nil {
				from = b.newBlock()
			}
			b.gotos = append(b.gotos, pendingGoto{from: from, label: label})
			b.cur = nil
		case token.FALLTHROUGH:
			if b.fallthroughTarget != nil {
				b.jump(b.fallthroughTarget)
			} else {
				b.cur = nil
			}
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				b.jump(b.cfg.Exit)
			}
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, IncDec, Decl, Send, Go, Defer, ...: straight-line.
		b.add(s)
	}
}

// switchStmt builds value and type switches: Init/Tag in the head
// block, one block per clause, fallthrough edges between consecutive
// clauses, and an implicit edge to after when no default exists.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	b.add(init)
	b.add(tag)
	b.add(assign)
	head := b.cur
	if head == nil {
		head = b.startBlock()
	}
	after := b.newBlock()
	b.pushFrame(&loopFrame{label: label, brk: after})

	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if cc, ok := clauses[i].(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		prevFT := b.fallthroughTarget
		if i+1 < len(blocks) {
			b.fallthroughTarget = blocks[i+1]
		} else {
			b.fallthroughTarget = nil
		}
		b.stmtList(cc.Body)
		b.fallthroughTarget = prevFT
		b.jump(after)
	}
	b.popFrame()
	b.cur = after
}

// FlowProblem describes a forward dataflow problem over a CFG for
// SolveForward. S is the abstract state; implementations must treat
// states as immutable (Transfer and Merge return fresh values).
type FlowProblem[S any] struct {
	// Boundary is the state at function entry.
	Boundary S
	// Unreachable is the state assumed for blocks with no predecessors
	// (dead code after a terminator): the may-analysis bottom or the
	// must-analysis top, per problem.
	Unreachable S
	// Merge joins two predecessor out-states.
	Merge func(a, b S) S
	// Transfer applies one block node to the incoming state.
	Transfer func(s S, n ast.Node) S
	// Equal reports state equality, for fixpoint detection.
	Equal func(a, b S) bool
}

// SolveForward iterates the problem to fixpoint and returns each
// block's entry state. Per-node states inside a block are recovered by
// replaying Transfer from the block's entry state.
func SolveForward[S any](c *CFG, p FlowProblem[S]) map[*Block]S {
	in := make(map[*Block]S, len(c.Blocks))
	out := make(map[*Block]S, len(c.Blocks))
	for _, blk := range c.Blocks {
		if blk == c.Entry {
			in[blk] = p.Boundary
		} else {
			in[blk] = p.Unreachable
		}
		out[blk] = transferBlock(in[blk], blk, p.Transfer)
	}
	// Chaotic iteration with a simple worklist; the graphs are small
	// (one function) so no priority ordering is needed.
	work := make([]*Block, len(c.Blocks))
	copy(work, c.Blocks)
	inWork := make([]bool, len(c.Blocks))
	for i := range inWork {
		inWork[i] = true
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		inWork[blk.Index] = false

		state := in[blk]
		if blk != c.Entry && len(blk.Preds) > 0 {
			state = out[blk.Preds[0]]
			for _, pr := range blk.Preds[1:] {
				state = p.Merge(state, out[pr])
			}
		}
		newOut := transferBlock(state, blk, p.Transfer)
		if p.Equal(state, in[blk]) && p.Equal(newOut, out[blk]) {
			continue
		}
		in[blk], out[blk] = state, newOut
		for _, s := range blk.Succs {
			if !inWork[s.Index] {
				inWork[s.Index] = true
				work = append(work, s)
			}
		}
	}
	return in
}

func transferBlock[S any](s S, blk *Block, transfer func(S, ast.Node) S) S {
	for _, n := range blk.Nodes {
		s = transfer(s, n)
	}
	return s
}

// scanBlockNode walks one CFG block node the way transfer functions
// should see it: the bodies of function literals are skipped (they are
// values, analyzed as their own functions), and a RangeStmt node — the
// per-iteration definition marker — exposes only its Key, Value and X,
// never the loop body that lives in successor blocks.
func scanBlockNode(n ast.Node, f func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		if rs.Key != nil {
			scanBlockNode(rs.Key, f)
		}
		if rs.Value != nil {
			scanBlockNode(rs.Value, f)
		}
		scanBlockNode(rs.X, f)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, isLit := m.(*ast.FuncLit); isLit {
			f(m)         // visit the literal itself (a value) ...
			return false // ... but never its body
		}
		return f(m)
	})
}
