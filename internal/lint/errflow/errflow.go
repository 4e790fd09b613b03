// Package errflow implements the error-handling analyzer for the
// module's service surface: the campaign daemon's HTTP handlers, the
// fleet coordinator/worker plumbing, and the result-store codec. Those
// are the places a silently dropped error turns into a wedged campaign
// or a corrupt cache entry, so the rules are strict there and not
// enforced elsewhere (packages named service, fleet, or store).
//
// Two rules, applied to every function body — declared functions and the
// function literals inside them alike:
//
//  1. Dropped errors: a call whose last result is an error, used as a
//     bare statement, is a bug. Writes to an http.ResponseWriter are
//     exempt (the response is already in flight; there is nothing left
//     to do with the error), as is best-effort cleanup inside a block
//     that already returns an error.
//
//  2. Overwritten errors: assigning to an error variable whose previous
//     value has not been read on ANY path to the assignment loses that
//     error. This is a must-analysis over the function's CFG — if some
//     path checked the value, the assignment is fine — solved with the
//     dataflow package's forward solver under an intersection join.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"clustersmt/internal/lint"
	"clustersmt/internal/lint/cfg"
	"clustersmt/internal/lint/dataflow"
)

// Analyzer is the errflow analyzer.
var Analyzer = &lint.Analyzer{
	Name: "errflow",
	Doc: "in service, fleet, and store packages: no dropped error results, " +
		"no error variables overwritten while still unchecked",
	Run: run,
}

func run(pass *lint.Pass) error {
	switch pass.Pkg.Types.Name() {
	case "service", "fleet", "store":
	default:
		return nil
	}
	for _, fg := range cfg.BuildAll(pass.Files) {
		if fg.Body == nil {
			continue
		}
		checkDropped(pass, fg.Body)
		checkOverwritten(pass, fg.Graph)
	}
	return nil
}

// --- rule 1: dropped error results ---

func checkDropped(pass *lint.Pass, body *ast.BlockStmt) {
	// Walk statement lists so a drop can see its block's later statements
	// (the cleanup-on-error-path exemption).
	var walkList func(list []ast.Stmt)
	var walk func(s ast.Stmt)
	walkList = func(list []ast.Stmt) {
		for i, s := range list {
			if es, ok := s.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok && returnsError(pass, call) {
					if !droppedExempt(pass, call, list[i+1:]) {
						pass.Reportf(es.Pos(), "error result of %s is dropped; check it or assign it to _ deliberately", types.ExprString(call.Fun))
					}
				}
				continue
			}
			walk(s)
		}
	}
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BlockStmt:
			walkList(s.List)
		case *ast.IfStmt:
			walkList(s.Body.List)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.ForStmt:
			walkList(s.Body.List)
		case *ast.RangeStmt:
			walkList(s.Body.List)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkList(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			walk(s.Stmt)
		}
	}
	walkList(body.List)
}

// returnsError reports whether the call's last result is the error type.
func returnsError(pass *lint.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

// droppedExempt: response writes (nothing left to do once the wire has the
// bytes) and best-effort cleanup in a block already returning an error.
func droppedExempt(pass *lint.Pass, call *ast.CallExpr, rest []ast.Stmt) bool {
	if touchesResponseWriter(pass, call) {
		return true
	}
	for _, s := range rest {
		ret, ok := s.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, r := range ret.Results {
			if tv, ok := pass.TypesInfo.Types[r]; ok && isErrorType(tv.Type) {
				if id, ok := ast.Unparen(r).(*ast.Ident); !ok || id.Name != "nil" {
					return true // cleanup on a path that reports some error
				}
			}
		}
	}
	return false
}

func touchesResponseWriter(pass *lint.Pass, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && isResponseWriter(tv.Type) {
			return true
		}
	}
	for _, a := range call.Args {
		if tv, ok := pass.TypesInfo.Types[a]; ok && isResponseWriter(tv.Type) {
			return true
		}
	}
	return false
}

// --- rule 2: overwritten-before-checked, a must-analysis over the CFG ---

// errState maps error-typed objects to the position of their latest
// still-unread assignment. nil is bottom ("no path seen").
type errState map[types.Object]token.Pos

func (s errState) clone() errState {
	c := make(errState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

type errProblem struct {
	pass   *lint.Pass
	report bool
}

func (p *errProblem) Boundary() errState { return errState{} }

func (p *errProblem) Transfer(b *cfg.Block, in errState) errState {
	st := in.clone()
	for _, n := range b.Nodes {
		p.node(n, st)
	}
	return st
}

func (p *errProblem) node(n ast.Node, st errState) {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		// Every other node only reads: any mention of a tracked variable
		// (a check, a return, passing it or its address along) clears it.
		clearReads(p.pass, n, st)
		return
	}
	// Reads on the right-hand side (and in index/selector positions on the
	// left) clear first; then the write itself lands.
	for _, r := range as.Rhs {
		clearReads(p.pass, r, st)
	}
	for _, l := range as.Lhs {
		if _, isIdent := ast.Unparen(l).(*ast.Ident); !isIdent {
			clearReads(p.pass, l, st)
		}
	}
	for _, l := range as.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := p.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = p.pass.TypesInfo.Uses[id]
		}
		if obj == nil || !isErrorType(obj.Type()) {
			continue
		}
		if prev, unread := st[obj]; unread && p.report {
			prevLine := p.pass.Fset.Position(prev).Line
			p.pass.Reportf(id.Pos(), "%s overwritten before the error assigned on line %d is checked", id.Name, prevLine)
		}
		st[obj] = id.Pos()
	}
}

func (p *errProblem) Join(acc, src errState) (errState, bool) {
	if acc == nil {
		return src.clone(), len(src) > 0
	}
	changed := false
	for o := range acc {
		if _, ok := src[o]; !ok {
			delete(acc, o) // read on some path: no longer must-unread
			changed = true
		}
	}
	return acc, changed
}

func (p *errProblem) Equal(a, b errState) bool {
	if len(a) != len(b) {
		return false
	}
	for o, v := range a {
		if w, ok := b[o]; !ok || w != v {
			return false
		}
	}
	return true
}

// clearReads removes every tracked variable mentioned under n.
func clearReads(pass *lint.Pass, n ast.Node, st errState) {
	if n == nil || len(st) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				delete(st, obj)
			}
		}
		return true
	})
}

func checkOverwritten(pass *lint.Pass, g *cfg.Graph) {
	p := &errProblem{pass: pass}
	facts := dataflow.Forward[errState](g, p)
	// Replay with reporting on, from the solved facts.
	p.report = true
	for _, b := range g.Blocks {
		st := facts.In[b.Index]
		if st == nil {
			st = errState{}
		}
		p.Transfer(b, st)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isResponseWriter(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Name() == "ResponseWriter" && o.Pkg() != nil && o.Pkg().Path() == "net/http"
}
