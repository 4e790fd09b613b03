// Package lockcheck enforces the campaign service's and fleet's locking
// discipline: no blocking operation while holding one of their mutexes.
// The daemon's liveness argument (a slow SSE reader, a full queue, or a
// stuck simulation can never wedge the API) rests on every s.mu/j.mu/
// events.mu critical section being a short, purely local computation, and
// the fleet coordinator's argument (a slow worker can never wedge the
// dispatch queue — onDone callbacks fire after unlock) rests on
// the same rule for queue/registry/coordinator sections; this analyzer
// rejects channel sends/receives, selects without a default, time.Sleep,
// Run/Wait-style calls, and http.ResponseWriter writes performed between a
// Lock and its Unlock in the same function.
//
// The analysis is a must-hold dataflow problem over each function's CFG
// (internal/lint/cfg): a lock is held at a program point only if it is
// held on EVERY path reaching it, computed by the forward solver under an
// intersection join. Early-unlock-and-return branches, conditional
// unlocks, and deferred unlocks all fall out of the graph shape — the
// defer chain runs on exit edges, so a deferred Unlock never releases the
// critical section early — and a lock acquired on both arms of a branch
// is held after the merge. Send/receive cases of a select that has a
// default clause are non-blocking by construction and are not flagged —
// Submit's queue admission depends on exactly that shape. Function
// literals run on their own goroutine or call stack, so each body is
// analyzed as a fresh scope with no inherited locks.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"clustersmt/internal/lint"
	"clustersmt/internal/lint/cfg"
	"clustersmt/internal/lint/dataflow"
)

// Analyzer is the lockcheck check.
var Analyzer = &lint.Analyzer{
	Name: "lockcheck",
	Doc: "check that no blocking operation (channel op, sleep, Run/Wait, " +
		"ResponseWriter write) happens while a sync mutex acquired in the " +
		"same function is held",
	Run: run,
}

// mutexMethods maps the sync lock methods to +1 (acquire) / -1 (release).
var mutexMethods = map[string]int{
	"(*sync.Mutex).Lock":      +1,
	"(*sync.Mutex).Unlock":    -1,
	"(*sync.Mutex).TryLock":   +1, // conservatively: treat as acquired
	"(*sync.RWMutex).Lock":    +1,
	"(*sync.RWMutex).Unlock":  -1,
	"(*sync.RWMutex).RLock":   +1,
	"(*sync.RWMutex).RUnlock": -1,
}

func run(pass *lint.Pass) error {
	// The locking discipline this analyzer encodes belongs to the campaign
	// service and the fleet (coordinator, dispatch queue, registry, worker);
	// other packages have their own (checked dynamically).
	switch pass.Pkg.Types.Name() {
	case "service", "fleet":
	default:
		return nil
	}
	for _, f := range pass.Files {
		for _, fg := range cfg.BuildAll([]*ast.File{f}) {
			if fg.Body == nil {
				continue
			}
			check(pass, fg.Graph)
		}
	}
	return nil
}

// held is the set of mutexes currently locked, keyed by receiver
// expression text. nil is bottom: no path has reached the point yet.
type held map[string]bool

func (h held) clone() held {
	c := make(held, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

func (h held) names() string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// problem is the must-hold dataflow problem: facts shrink at joins
// (intersection), so a lock survives a merge only if every inbound path
// holds it.
type problem struct {
	pass   *lint.Pass
	report bool
}

func (p *problem) Boundary() held { return held{} }

func (p *problem) Transfer(b *cfg.Block, in held) held {
	h := in.clone()
	if p.report && b.Kind == cfg.KindCond {
		if sel, ok := b.Stmt.(*ast.SelectStmt); ok && len(h) > 0 && !selectHasDefault(sel) {
			p.reportf(sel.Pos(), "select with no default clause", h)
		}
	}
	for _, n := range b.Nodes {
		p.node(n, h)
	}
	return h
}

func (p *problem) node(n ast.Node, h held) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if key, delta, ok := p.mutexOp(call); ok {
				if delta > 0 {
					h[key] = true
				} else {
					delete(h, key)
				}
				return
			}
		}
		p.checkBlocking(n.X, h)
	case *ast.CallExpr:
		// A deferred call, running on the exit path (KindDefer block): a
		// deferred Unlock releases there — after every statement in the
		// body — and other deferred work runs outside the critical
		// sections this pass models, so only the lock effect is applied.
		if key, delta, ok := p.mutexOp(n); ok && delta < 0 {
			delete(h, key)
		}
	case *ast.RangeStmt:
		// Only the range operand belongs to this block; the body is its
		// own block downstream.
		if p.report {
			if tv, ok := p.pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && len(h) > 0 {
					p.reportf(n.Pos(), "range over channel", h)
				}
			}
		}
		p.checkBlocking(n.X, h)
	case *ast.CaseClause:
		for _, e := range n.List {
			p.checkBlocking(e, h)
		}
	case *ast.CommClause:
		// The comm op blocks only when the select has no default, which is
		// reported once at the select itself.
	case *ast.GoStmt:
		// The spawned goroutine does not inherit lock ownership, and its
		// literal body is analyzed as a fresh scope.
	case *ast.DeferStmt:
		// Registration point: effects happen in the KindDefer block.
	default:
		p.checkBlocking(n, h)
	}
}

func (p *problem) Join(acc, src held) (held, bool) {
	if acc == nil {
		return src.clone(), len(src) > 0
	}
	changed := false
	for k := range acc {
		if !src[k] {
			delete(acc, k) // released on some path: not must-held
			changed = true
		}
	}
	return acc, changed
}

func (p *problem) Equal(a, b held) bool { return maps.Equal(a, b) }

func check(pass *lint.Pass, g *cfg.Graph) {
	p := &problem{pass: pass}
	facts := dataflow.Forward[held](g, p)
	p.report = true
	for _, b := range g.Blocks {
		h := facts.In[b.Index]
		if h == nil {
			h = held{}
		}
		p.Transfer(b, h)
	}
}

// mutexOp recognizes calls to sync.Mutex / sync.RWMutex lock methods and
// returns the receiver expression text as the lock identity.
func (p *problem) mutexOp(call *ast.CallExpr) (key string, delta int, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	obj, ok := p.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", 0, false
	}
	delta, ok = mutexMethods[obj.FullName()]
	if !ok {
		return "", 0, false
	}
	return types.ExprString(sel.X), delta, true
}

// checkBlocking reports blocking operations inside node while locks are held.
func (p *problem) checkBlocking(node ast.Node, h held) {
	if !p.report || len(h) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, analyzed with fresh state
		case *ast.SendStmt:
			p.reportf(n.Pos(), "channel send", h)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				p.reportf(n.Pos(), "channel receive", h)
			}
		case *ast.CallExpr:
			if what := p.blockingCall(n); what != "" {
				p.reportf(n.Pos(), what, h)
			}
		}
		return true
	})
}

// blockingCall classifies a call as blocking, returning a description or "".
func (p *problem) blockingCall(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := p.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
			switch obj.FullName() {
			case "time.Sleep":
				return "time.Sleep"
			}
			switch obj.Name() {
			case "RunCtx", "Run", "Wait":
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					return "call to " + obj.Name() + " (runs or waits for work of unbounded duration)"
				}
			}
		}
		if p.isStreamWriter(sel.X) {
			return "http.ResponseWriter method call (a slow client blocks the write)"
		}
	}
	for _, arg := range call.Args {
		if p.isStreamWriter(arg) {
			return "call passing an http.ResponseWriter (a slow client blocks the write)"
		}
	}
	return ""
}

// isStreamWriter reports whether expr's static type is net/http's
// ResponseWriter or Flusher interface.
func (p *problem) isStreamWriter(expr ast.Expr) bool {
	tv, ok := p.pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
		return false
	}
	return obj.Name() == "ResponseWriter" || obj.Name() == "Flusher"
}

func (p *problem) reportf(pos token.Pos, what string, h held) {
	p.pass.Reportf(pos, "%s while holding %s", what, h.names())
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}
