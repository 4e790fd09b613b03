// Package cfg builds intraprocedural control-flow graphs over go/ast for
// the smtlint dataflow analyzers. A Graph gives every analyzer the same
// explicit basic-block structure — branch edges from if/switch/select,
// loop back-edges from for/range, and defer edges routing every function
// exit through the deferred-call chain — so flow-sensitive facts can be
// solved to a fixpoint by internal/lint/dataflow instead of being threaded
// through recursive statement visits.
//
// The builder is deliberately modest: one graph per function body (function
// literals get their own graphs; a FuncLit in an expression is an opaque
// node of the enclosing graph), no expression-level decomposition (a
// block's Nodes are statements plus the control expressions that guard its
// successors), and no interprocedural edges (the module-local call graph
// lives in internal/lint/dataflow). Statically unreachable blocks — code
// after an unconditional return; constant conditions are NOT folded — are
// pruned after construction, so every retained block is reachable from
// Entry.
//
// Structural invariants, asserted module-wide by TestModuleCFGInvariants:
//
//   - exactly one Entry block, with no predecessors
//   - exactly one Exit block, with no successors
//   - every block is reachable from Entry
//   - every defer block's successor chain terminates at Exit without
//     branching (defers run unconditionally once registered)
//   - successor/predecessor lists mirror each other
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
)

// Kind classifies a block for diagnostics and for the defer-chain
// invariant.
type Kind uint8

const (
	// KindBody is an ordinary straight-line block.
	KindBody Kind = iota
	// KindEntry is the function entry block (parameters live here).
	KindEntry
	// KindExit is the synthetic exit block every return reaches.
	KindExit
	// KindCond holds a branch scrutinee (if/for condition, switch tag,
	// range operand); it has one successor per outcome.
	KindCond
	// KindDefer holds one deferred call, executed on the way to Exit.
	KindDefer
)

func (k Kind) String() string {
	switch k {
	case KindBody:
		return "body"
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindCond:
		return "cond"
	case KindDefer:
		return "defer"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// A Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	Index int
	Kind  Kind
	// Nodes are the block's statements in execution order. Control
	// statements contribute their scrutinee (if/for conditions, switch
	// tags, range statements) to the block that branches on them.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
	// Stmt is the branch/loop statement a Cond block was built from.
	Stmt ast.Stmt
}

// addEdge links a -> b, keeping Succs/Preds mirrored.
func addEdge(a, b *Block) {
	a.Succs = append(a.Succs, b)
	b.Preds = append(b.Preds, a)
}

// A Graph is one function body's control-flow graph.
type Graph struct {
	// Name labels the graph in diagnostics ("(*Processor).Step",
	// "Submit$1" for the first literal inside Submit).
	Name   string
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// New builds the graph for one function body. name is used only in
// diagnostics. body may be nil (external/assembly declarations), in which
// case the graph is Entry -> Exit with no other blocks.
func New(name string, body *ast.BlockStmt) *Graph {
	g := &Graph{Name: name}
	b := &builder{g: g}
	g.Entry = b.newBlock(KindEntry)
	g.Exit = b.newBlock(KindExit)
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body returns (valid when the function has
	// no results; otherwise the tail is unreachable and gets pruned).
	b.ret()
	g.prune()
	return g
}

// builder threads construction state through the statement walk.
type builder struct {
	g   *Graph
	cur *Block // nil while the walk is in statically unreachable code

	// deferHead is the entry of the defer chain built so far (defers run
	// LIFO, so the most recent registration is the chain head); exits
	// route through it. Nil until the first defer statement.
	deferHead *Block

	labels map[string]*labelTarget
	// pendingLabel is set while building the statement a label names, so
	// the loop/switch builders can wire labeled break/continue targets.
	pendingLabel *labelTarget
	// breakTo/continueTo are the innermost enclosing targets.
	breakTo    []*Block
	continueTo []*Block
}

// labelTarget resolves a labeled statement's break/continue/goto blocks.
type labelTarget struct {
	gotoB     *Block // the labeled statement itself
	breakB    *Block // after-block of the labeled loop/switch/select
	continueB *Block // post/head block of the labeled loop
}

func (b *builder) newBlock(k Kind) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: k}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// start begins a new block and links the current one to it (if reachable).
func (b *builder) start(k Kind) *Block {
	blk := b.newBlock(k)
	if b.cur != nil {
		addEdge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

// exitTarget is where a return/panic edge goes: through the defer chain
// when one exists, straight to Exit otherwise.
func (b *builder) exitTarget() *Block {
	if b.deferHead != nil {
		return b.deferHead
	}
	return b.g.Exit
}

// ret ends the current block with an edge to the function exit.
func (b *builder) ret() {
	if b.cur != nil {
		addEdge(b.cur, b.exitTarget())
	}
	b.cur = nil
}

func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		// Unreachable code still gets blocks so its nodes exist somewhere;
		// prune removes them afterwards.
		b.cur = b.newBlock(KindBody)
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// label looks up (or pre-creates) the record for a label name.
func (b *builder) label(name string) *labelTarget {
	if b.labels == nil {
		b.labels = map[string]*labelTarget{}
	}
	t := b.labels[name]
	if t == nil {
		t = &labelTarget{}
		b.labels[name] = t
	}
	return t
}

func (b *builder) stmt(s ast.Stmt) {
	// A label names exactly the statement that follows it; consume the
	// pending record here so nested constructs cannot claim it.
	lbl := b.pendingLabel
	b.pendingLabel = nil

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.ret()

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s.X) {
			// A panic runs the defers and leaves the function; modeling it
			// as an exit edge keeps "all paths" arguments honest.
			b.ret()
		}

	case *ast.DeferStmt:
		b.add(s) // registration point, in flow order
		// Prepend to the chain: defers run LIFO, so every later exit must
		// pass through this call before the previously registered ones.
		d := b.newBlock(KindDefer)
		d.Nodes = append(d.Nodes, s.Call)
		addEdge(d, b.exitTarget())
		b.deferHead = d

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.start(KindCond)
		cond.Stmt = s
		cond.Nodes = append(cond.Nodes, s.Cond)
		after := b.newBlock(KindBody)

		thenB := b.newBlock(KindBody)
		addEdge(cond, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		if b.cur != nil {
			addEdge(b.cur, after)
		}

		if s.Else != nil {
			elseB := b.newBlock(KindBody)
			addEdge(cond, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			if b.cur != nil {
				addEdge(b.cur, after)
			}
		} else {
			addEdge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.start(KindCond)
		head.Stmt = s
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		after := b.newBlock(KindBody)
		var post *Block
		if s.Post != nil {
			post = b.newBlock(KindBody)
			post.Nodes = append(post.Nodes, s.Post)
			addEdge(post, head)
		}
		contTo := head
		if post != nil {
			contTo = post
		}
		if lbl != nil {
			lbl.breakB, lbl.continueB = after, contTo
		}

		body := b.newBlock(KindBody)
		addEdge(head, body)
		if s.Cond != nil {
			addEdge(head, after) // condition may be false
		}
		b.breakTo = append(b.breakTo, after)
		b.continueTo = append(b.continueTo, contTo)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			addEdge(b.cur, contTo)
		}
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		// `for {}` with no break never reaches after; prune drops it.
		b.cur = after

	case *ast.RangeStmt:
		head := b.start(KindCond)
		head.Stmt = s
		head.Nodes = append(head.Nodes, s) // the range op guards the loop
		after := b.newBlock(KindBody)
		addEdge(head, after) // the range may be empty / exhausted
		if lbl != nil {
			lbl.breakB, lbl.continueB = after, head
		}

		body := b.newBlock(KindBody)
		addEdge(head, body)
		b.breakTo = append(b.breakTo, after)
		b.continueTo = append(b.continueTo, head)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			addEdge(b.cur, head)
		}
		b.breakTo = b.breakTo[:len(b.breakTo)-1]
		b.continueTo = b.continueTo[:len(b.continueTo)-1]
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.multiway(s, lbl)

	case *ast.LabeledStmt:
		t := b.label(s.Label.Name)
		// The labeled statement begins a fresh block: goto jumps here.
		if t.gotoB == nil {
			t.gotoB = b.newBlock(KindBody)
		}
		if b.cur != nil {
			addEdge(b.cur, t.gotoB)
		}
		b.cur = t.gotoB
		b.pendingLabel = t
		b.stmt(s.Stmt)
		b.pendingLabel = nil

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if t := b.label(s.Label.Name); t.breakB != nil && b.cur != nil {
					addEdge(b.cur, t.breakB)
				}
			} else if len(b.breakTo) > 0 && b.cur != nil {
				addEdge(b.cur, b.breakTo[len(b.breakTo)-1])
			}
			b.cur = nil
		case token.CONTINUE:
			if s.Label != nil {
				if t := b.label(s.Label.Name); t.continueB != nil && b.cur != nil {
					addEdge(b.cur, t.continueB)
				}
			} else if len(b.continueTo) > 0 && b.cur != nil {
				addEdge(b.cur, b.continueTo[len(b.continueTo)-1])
			}
			b.cur = nil
		case token.GOTO:
			if s.Label != nil && b.cur != nil {
				t := b.label(s.Label.Name)
				if t.gotoB == nil {
					t.gotoB = b.newBlock(KindBody) // forward goto
				}
				addEdge(b.cur, t.gotoB)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by multiway (the clause walk links to the next case).
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Go/send/incdec/assign/decl and anything new: straight-line.
		b.add(s)
	}
}

// multiway builds switch/type-switch/select: one Cond block fanning out to
// per-clause blocks that rejoin after.
func (b *builder) multiway(s ast.Stmt, lbl *labelTarget) {
	var clauses []ast.Stmt
	var bodyOf func(ast.Stmt) []ast.Stmt
	// clauseNode is what a clause contributes to the head of its block:
	// the clause itself (its type list or comm op) unless the cond block
	// already holds its case expressions.
	clauseNode := func(c ast.Stmt) ast.Node { return c }
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.start(KindCond)
		cond.Stmt = s
		if s.Tag != nil {
			cond.Nodes = append(cond.Nodes, s.Tag)
		}
		// The case expressions decide which clause runs, and a path that
		// matches no case (to the default or past the switch) evaluates
		// all of them, so they belong to the cond block. In a tag-less
		// switch they are the only reads the branch makes.
		clauses = s.Body.List
		bodyOf = func(c ast.Stmt) []ast.Stmt { return c.(*ast.CaseClause).Body }
		clauseNode = func(ast.Stmt) ast.Node { return nil }
		for _, c := range clauses {
			list := c.(*ast.CaseClause).List
			if list == nil {
				hasDefault = true
			}
			for _, e := range list {
				cond.Nodes = append(cond.Nodes, e)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.start(KindCond)
		cond.Stmt = s
		cond.Nodes = append(cond.Nodes, s.Assign)
		clauses = s.Body.List
		bodyOf = func(c ast.Stmt) []ast.Stmt { return c.(*ast.CaseClause).Body }
		for _, c := range clauses {
			if c.(*ast.CaseClause).List == nil {
				hasDefault = true
			}
		}
	case *ast.SelectStmt:
		cond := b.start(KindCond)
		cond.Stmt = s
		clauses = s.Body.List
		bodyOf = func(c ast.Stmt) []ast.Stmt { return c.(*ast.CommClause).Body }
		for _, c := range clauses {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
	}
	cond := b.cur
	after := b.newBlock(KindBody)
	b.breakTo = append(b.breakTo, after)
	if lbl != nil {
		lbl.breakB = after
	}

	// An expression switch with no default may match no case and fall
	// through to after. (A select without default blocks until a clause is
	// ready, but the conservative may-skip edge is harmless for forward
	// may-analyses and keeps "no clause ran" paths representable.)
	if !hasDefault {
		addEdge(cond, after)
	}

	clauseBlocks := make([]*Block, len(clauses))
	for i, c := range clauses {
		cb := b.newBlock(KindBody)
		if n := clauseNode(c); n != nil {
			cb.Nodes = append(cb.Nodes, n)
		}
		addEdge(cond, cb)
		clauseBlocks[i] = cb
	}
	for i, c := range clauses {
		b.cur = clauseBlocks[i]
		body := bodyOf(c)
		b.stmtList(body)
		if b.cur != nil {
			// fallthrough links to the next clause body; otherwise rejoin.
			if n := len(body); n > 0 {
				if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(clauseBlocks) {
					addEdge(b.cur, clauseBlocks[i+1])
					continue
				}
			}
			addEdge(b.cur, after)
		}
	}
	b.breakTo = b.breakTo[:len(b.breakTo)-1]
	b.cur = after
}

// isPanic recognizes a direct call to the panic builtin (by name — the
// builder is untyped; shadowed panic identifiers are rare enough to accept
// the imprecision, and the typed analyzers can re-check).
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// prune removes blocks unreachable from Entry (code after returns, loop
// after-blocks of `for {}`), keeping Succs/Preds mirrored, and renumbers.
func (g *Graph) prune() {
	reach := make([]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	reach[g.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !reach[s.Index] {
				reach[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	// The exit block is structural: keep it even when nothing reaches it
	// (`for {}` bodies), so Exit-based queries stay total.
	reach[g.Exit.Index] = true

	keep := g.Blocks[:0]
	for _, blk := range g.Blocks {
		if reach[blk.Index] {
			keep = append(keep, blk)
		}
	}
	for _, blk := range keep {
		preds := blk.Preds[:0]
		for _, p := range blk.Preds {
			if reach[p.Index] {
				preds = append(preds, p)
			}
		}
		blk.Preds = preds
		succs := blk.Succs[:0]
		for _, s := range blk.Succs {
			if reach[s.Index] {
				succs = append(succs, s)
			}
		}
		blk.Succs = succs
	}
	g.Blocks = keep
	for i, blk := range g.Blocks {
		blk.Index = i
	}
}
