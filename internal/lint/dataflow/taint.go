package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"clustersmt/internal/lint"
	"clustersmt/internal/lint/cfg"
)

// Kind is a bitmask of nondeterminism sources tracked by the determinism
// taint analysis (the engine behind detcheck).
type Kind uint8

const (
	// MapOrder marks values that depend on map iteration order.
	MapOrder Kind = 1 << iota
	// ChanOrder marks values that depend on goroutine send ordering (the
	// order in which concurrent senders' values arrive at a receive).
	ChanOrder
	// WallClock marks values derived from time.Now/Since/Until.
	WallClock
	// MathRand marks values from package-level math/rand calls, which are
	// seeded nondeterministically. (Methods on an explicitly constructed
	// *rand.Rand are considered seeded and deterministic.)
	MathRand
)

// OrderKinds are the kinds describing ORDER nondeterminism: re-keying a
// value into a map or slice slot (m[k] = v) launders them — the resulting
// contents are a function of which pairs exist, not of visit order — while
// VALUE kinds (WallClock, MathRand) survive any data movement.
const OrderKinds = MapOrder | ChanOrder

// AllKinds is every tracked kind.
const AllKinds = MapOrder | ChanOrder | WallClock | MathRand

func (k Kind) String() string {
	var parts []string
	for _, e := range [...]struct {
		k Kind
		s string
	}{
		{MapOrder, "map iteration order"},
		{ChanOrder, "goroutine send order"},
		{WallClock, "wall-clock time"},
		{MathRand, "math/rand value"},
	} {
		if k&e.k != 0 {
			parts = append(parts, e.s)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	s := parts[0]
	for _, p := range parts[1:] {
		s += "+" + p
	}
	return s
}

// Taint is one value's taint: concrete kinds, plus symbolic parameter
// origins (bit i set = tainted iff the enclosing function's parameter i
// is). The parameter bits are how call-graph summaries are computed: a
// sink reached by a Params bit becomes a ParamSink in the function's
// summary rather than a finding.
type Taint struct {
	Kinds  Kind
	Params uint32
}

func (t Taint) union(u Taint) Taint {
	return Taint{Kinds: t.Kinds | u.Kinds, Params: t.Params | u.Params}
}

func (t Taint) zero() bool { return t.Kinds == 0 && t.Params == 0 }

// A ParamSink records that a function forwards parameter Param into a sink
// (directly or through further calls): callers must check their argument.
type ParamSink struct {
	Param int
	Sink  string // sink description, with the via-chain appended
	Mask  Kind   // kinds that matter at the sink
}

// A Summary is one function's interprocedural taint contract.
type Summary struct {
	// Returns holds one Taint per result value, in signature order: Kinds
	// a result may carry from sources inside the function, and Params
	// bits for parameters whose taint may flow to that result. Tracking
	// results individually matters: a validation function whose error
	// MESSAGE embeds map-ordered text must not smear MapOrder onto the
	// values returned beside the error.
	Returns []Taint
	// ParamSinks lists parameters that reach sinks inside the function.
	ParamSinks []ParamSink
}

// ret is the i'th result's taint (zero past the known results).
func (s *Summary) ret(i int) Taint {
	if s != nil && i < len(s.Returns) {
		return s.Returns[i]
	}
	return Taint{}
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil {
		o = &Summary{}
	}
	if len(s.Returns) != len(o.Returns) || len(s.ParamSinks) != len(o.ParamSinks) {
		return false
	}
	for i := range s.Returns {
		if s.Returns[i] != o.Returns[i] {
			return false
		}
	}
	for i := range s.ParamSinks {
		if s.ParamSinks[i] != o.ParamSinks[i] {
			return false
		}
	}
	return true
}

func (s *Summary) addParamSink(p ParamSink) {
	for _, e := range s.ParamSinks {
		if e == p {
			return
		}
	}
	s.ParamSinks = append(s.ParamSinks, p)
}

// A Finding is one nondeterminism flow: a tainted value reaching an
// observable-output sink.
type Finding struct {
	Pos   token.Pos
	Kinds Kind   // kinds that actually hit the sink (already mask-filtered)
	Sink  string // sink description ("metrics.Stats field Cycles", ...)
}

// summariesCache maps *lint.Module to a once-guarded summary table so the
// module-wide fixpoint runs exactly once even under lint.Run's parallel
// workers.
var summariesCache sync.Map

type summariesEntry struct {
	once sync.Once
	sums map[*types.Func]*Summary
}

// ModuleSummaries computes (or returns cached) taint summaries for every
// function in the module, iterating to a fixpoint so taint propagates
// through call chains of any depth. The result is immutable and shared.
func ModuleSummaries(m *lint.Module) map[*types.Func]*Summary {
	v, _ := summariesCache.LoadOrStore(m, &summariesEntry{})
	e := v.(*summariesEntry)
	e.once.Do(func() { e.sums = computeSummaries(m) })
	return e.sums
}

func computeSummaries(m *lint.Module) map[*types.Func]*Summary {
	funcs := ModuleFuncs(m)
	sums := map[*types.Func]*Summary{}
	// Summaries grow monotonically, so iterating in a fixed order until
	// nothing changes converges; the bound only guards pathological
	// recursion.
	for round := 0; round < 20; round++ {
		changed := false
		for _, fn := range funcs.All {
			s := analyzeFunc(fn, funcs, sums, nil)
			if !s.equal(sums[fn.Obj]) {
				sums[fn.Obj] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

// DetFindings runs the determinism taint analysis over one package's
// functions (declarations and function literals) and returns the flows
// from nondeterminism sources to observable-output sinks, using the
// module's summaries for cross-function propagation.
func DetFindings(m *lint.Module, pkg *lint.Package) []Finding {
	sums := ModuleSummaries(m)
	funcs := ModuleFuncs(m)
	var out []Finding
	report := func(f Finding) { out = append(out, f) }
	for _, file := range pkg.Files {
		for _, fg := range cfg.BuildAll([]*ast.File{file}) {
			fn := &Fn{Pkg: pkg, G: fg.Graph}
			if fd, ok := fg.Decl.(*ast.FuncDecl); ok {
				fn.Decl = fd
				fn.Obj, _ = pkg.Info.Defs[fd.Name].(*types.Func)
			}
			analyzeFuncGraph(fn, fg.Type, fg.Body, funcs, sums, report)
		}
	}
	return out
}

// analyzeFunc analyzes one declared function and returns its summary;
// report (optional) receives concrete findings.
func analyzeFunc(fn *Fn, funcs *Funcs, sums map[*types.Func]*Summary, report func(Finding)) *Summary {
	return analyzeFuncGraph(fn, fn.Decl.Type, fn.Decl.Body, funcs, sums, report)
}

func analyzeFuncGraph(fn *Fn, ftype *ast.FuncType, body *ast.BlockStmt, funcs *Funcs, sums map[*types.Func]*Summary, report func(Finding)) *Summary {
	sum := &Summary{}
	if body == nil {
		return sum
	}
	w := &walker{
		info:  fn.Pkg.Info,
		funcs: funcs,
		sums:  sums,
	}
	// Boundary: each parameter (receiver first, for methods) carries its
	// symbolic origin bit, so sinks and returns inside the body build the
	// summary. Function literals get no bits — they have no summary — so
	// only concrete kinds report there.
	boundary := state{}
	if fn.Decl != nil {
		i := 0
		addParam := func(names []*ast.Ident) {
			for _, name := range names {
				if obj := fn.Pkg.Info.Defs[name]; obj != nil && name.Name != "_" && i < 32 {
					boundary[obj] = Taint{Params: 1 << i}
				}
				i++
			}
		}
		if fn.Decl.Recv != nil && len(fn.Decl.Recv.List) > 0 {
			addParam(fn.Decl.Recv.List[0].Names)
			if len(fn.Decl.Recv.List[0].Names) == 0 {
				i++ // unnamed receiver still occupies slot 0
			}
		}
		for _, f := range ftype.Params.List {
			if len(f.Names) == 0 {
				i++
				continue
			}
			addParam(f.Names)
		}
	}
	// Named results, for naked returns; result count sizes the summary.
	nresults := 0
	if ftype.Results != nil {
		for _, f := range ftype.Results.List {
			if len(f.Names) == 0 {
				nresults++
				continue
			}
			nresults += len(f.Names)
			for _, name := range f.Names {
				if obj := fn.Pkg.Info.Defs[name]; obj != nil {
					w.resultObjs = append(w.resultObjs, obj)
				}
			}
		}
	}
	sum.Returns = make([]Taint, nresults)

	p := &taintProblem{w: w, boundary: boundary}
	facts := Forward(fn.G, p)

	// Post pass with the solved facts: replay each block's effects with
	// the sink and return hooks attached.
	w.onSink = func(pos token.Pos, t Taint, desc string, mask Kind) {
		if k := t.Kinds & mask; k != 0 && report != nil {
			report(Finding{Pos: pos, Kinds: k, Sink: desc})
		}
		if t.Params != 0 {
			for i := 0; i < 32; i++ {
				if t.Params&(1<<i) != 0 {
					sum.addParamSink(ParamSink{Param: i, Sink: desc, Mask: mask})
				}
			}
		}
	}
	w.onReturn = func(ts []Taint) {
		for i, t := range ts {
			if i < len(sum.Returns) {
				sum.Returns[i] = sum.Returns[i].union(t)
			}
		}
	}
	for _, b := range fn.G.Blocks {
		st := facts.In[b.Index].clone()
		w.block(b, st)
	}
	w.onSink, w.onReturn = nil, nil
	return sum
}

// state maps in-scope objects to their taint. The zero value (nil map) is
// bottom: "no path reaches here yet".
type state map[types.Object]Taint

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s state) get(o types.Object) Taint { return s[o] }

func (s state) or(o types.Object, t Taint) {
	if o == nil || t.zero() {
		return
	}
	s[o] = s[o].union(t)
}

func (s state) set(o types.Object, t Taint) {
	if o == nil {
		return
	}
	if t.zero() {
		delete(s, o)
		return
	}
	s[o] = t
}

// taintProblem adapts the walker to the generic forward solver.
type taintProblem struct {
	w        *walker
	boundary state
}

func (p *taintProblem) Boundary() state { return p.boundary.clone() }

func (p *taintProblem) Transfer(b *cfg.Block, in state) state {
	st := in.clone()
	p.w.block(b, st)
	return st
}

func (p *taintProblem) Join(acc, src state) (state, bool) {
	if acc == nil {
		return src.clone(), len(src) > 0
	}
	changed := false
	for o, t := range src {
		if merged := acc[o].union(t); merged != acc[o] {
			acc[o] = merged
			changed = true
		}
	}
	return acc, changed
}

func (p *taintProblem) Equal(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for o, t := range a {
		if b[o] != t {
			return false
		}
	}
	return true
}

// walker applies the taint effects of one block's nodes to a state. Hooks
// are nil during the fixpoint (effects only) and set during the post pass.
type walker struct {
	info  *types.Info
	funcs *Funcs
	sums  map[*types.Func]*Summary

	resultObjs []types.Object // named results, for naked returns

	onSink   func(pos token.Pos, t Taint, desc string, mask Kind)
	onReturn func(ts []Taint)
}

func (w *walker) block(b *cfg.Block, st state) {
	for _, n := range b.Nodes {
		w.node(n, st)
	}
}

func (w *walker) node(n ast.Node, st state) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n, st)
	case *ast.IncDecStmt:
		// x++ keeps x's taint; m[k]++ is a read-modify-write keyed by k.
		// Integer elements launder ORDER taint — a complete iteration's
		// final counts are the same whatever order the slots were bumped
		// in (histogramming a map range is deterministic) — while value
		// kinds on the key (a wall-clock-derived key names the slot) stay.
		if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
			t := w.eval(ix.Index, st)
			if tv, ok := w.info.Types[ix]; ok && isIntegerScalar(tv.Type) {
				t.Kinds &^= OrderKinds
			}
			st.or(rootObj(w.info, ix.X), t)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var ts []Taint
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					ts = w.spread(w.resultsOf(vs.Values[0], st), len(vs.Names))
				}
				for i, name := range vs.Names {
					var t Taint
					if ts != nil {
						t = ts[i]
					} else if i < len(vs.Values) {
						t = w.eval(vs.Values[i], st)
					}
					if obj := w.info.Defs[name]; obj != nil {
						st.set(obj, t)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.eval(n.X, st)
	case *ast.GoStmt:
		w.eval(n.Call, st)
	case *ast.SendStmt:
		// The channel's contents inherit the sent value's taint; receives
		// read it back (plus ChanOrder). Sends from function literals are
		// not linked to the enclosing scope's channel object — a known
		// intraprocedural limit, covered by the receive-side ChanOrder.
		st.or(rootObj(w.info, n.Chan), w.eval(n.Value, st))
	case *ast.ReturnStmt:
		var ts []Taint
		switch {
		case len(n.Results) == 0: // naked return: named results carry
			for _, o := range w.resultObjs {
				ts = append(ts, st.get(o))
			}
		case len(n.Results) == 1: // may be a tuple passthrough: return f()
			ts = w.resultsOf(n.Results[0], st)
		default:
			for _, r := range n.Results {
				ts = append(ts, w.eval(r, st))
			}
		}
		if w.onReturn != nil {
			w.onReturn(ts)
		}
	case *ast.RangeStmt:
		w.rangeStmt(n, st)
	case *ast.CallExpr: // a defer block's deferred call
		w.eval(n, st)
	case *ast.CaseClause:
		for _, e := range n.List {
			w.eval(e, st)
		}
	case *ast.CommClause:
		if n.Comm != nil {
			w.node(n.Comm, st)
		}
	case *ast.DeferStmt:
		// The call's effects run in its KindDefer block on the exit path;
		// the registration point contributes nothing.
	case ast.Expr: // cond-block scrutinees: if/for conditions, switch tags
		w.eval(n, st)
	}
}

func (w *walker) assign(as *ast.AssignStmt, st state) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		ts := w.spread(w.resultsOf(as.Rhs[0], st), len(as.Lhs))
		for i, l := range as.Lhs {
			w.assignOne(l, ts[i], as.Tok, st)
		}
		return
	}
	for i, l := range as.Lhs {
		if i < len(as.Rhs) {
			w.assignOne(l, w.eval(as.Rhs[i], st), as.Tok, st)
		}
	}
}

// spread adapts a per-result taint slice to n targets: an exact match maps
// result i to target i; anything else (comma-ok forms, unknown tuple
// widths) smears the union over every target.
func (w *walker) spread(ts []Taint, n int) []Taint {
	if len(ts) == n {
		return ts
	}
	var u Taint
	for _, t := range ts {
		u = u.union(t)
	}
	out := make([]Taint, n)
	for i := range out {
		out[i] = u
	}
	return out
}

// resultsOf is eval generalized to multi-value expressions: a call with a
// tuple type yields one taint per result, anything else a single taint.
func (w *walker) resultsOf(e ast.Expr, st state) []Taint {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if tv, ok := w.info.Types[call]; ok {
			if tup, ok := tv.Type.(*types.Tuple); ok && tup.Len() > 1 {
				return w.callResults(call, tup.Len(), st)
			}
		}
	}
	return []Taint{w.eval(e, st)}
}

func (w *walker) assignOne(lhs ast.Expr, t Taint, tok token.Token, st state) {
	opAssign := tok != token.ASSIGN && tok != token.DEFINE
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := w.info.Defs[l]
		if obj == nil {
			obj = w.info.Uses[l]
		}
		if obj == nil {
			return
		}
		if opAssign {
			// x op= v folds v into x. For integer scalars the fold is
			// order-independent (commutative ring ops over a full
			// iteration yield the same total), so order taint is dropped;
			// floats keep it — FP addition is not associative, so a
			// map-ordered float sum is genuinely nondeterministic.
			if isIntegerScalar(obj.Type()) {
				t.Kinds &^= OrderKinds
			}
			st.or(obj, t)
			return
		}
		st.set(obj, t)
	case *ast.IndexExpr:
		root := rootObj(w.info, l.X)
		kt := w.eval(l.Index, st)
		add := t.union(kt)
		if !opAssign {
			// Plain keyed write m[k] = v: the final contents map keys to
			// values regardless of the order writes happened in, so ORDER
			// taint is laundered; value kinds (wall clock, rand) survive.
			add.Kinds &^= OrderKinds
		} else if tv, ok := w.info.Types[l]; ok && isIntegerScalar(tv.Type) {
			// m[k] op= v over integers is a commutative per-slot fold: the
			// final contents are visit-order independent. Float folds keep
			// order taint — FP addition is not associative.
			add.Kinds &^= OrderKinds
		}
		st.or(root, add)
	case *ast.SelectorExpr:
		w.fieldWriteSink(l, t, st)
		st.or(rootObj(w.info, l), t)
	case *ast.StarExpr:
		st.or(rootObj(w.info, l.X), t)
	}
}

func (w *walker) rangeStmt(rs *ast.RangeStmt, st state) {
	t := w.eval(rs.X, st)
	keyT := Taint{}
	valT := t
	if tv, ok := w.info.Types[rs.X]; ok {
		switch types.Unalias(tv.Type).Underlying().(type) {
		case *types.Map:
			t.Kinds |= MapOrder
			keyT, valT = t, t
		case *types.Chan:
			t.Kinds |= ChanOrder
			keyT = t // `for v := range ch`: the element binds to Key
		case *types.Signature:
			// range-over-func: iteration order is the iterator's (a
			// maps.Keys source already carries MapOrder in t).
			keyT, valT = t, t
		default:
			// Slices/arrays/strings/ints: positions are deterministic, so
			// the index stays clean; elements inherit the container.
			keyT = Taint{}
		}
	}
	if rs.Key != nil {
		w.assignOne(rs.Key, keyT, token.DEFINE, st)
	}
	if rs.Value != nil {
		w.assignOne(rs.Value, valT, token.DEFINE, st)
	}
}

// eval computes an expression's taint, applying call effects (sources,
// sanitizers, summaries) and sink checks along the way.
func (w *walker) eval(e ast.Expr, st state) Taint {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := w.info.Uses[e]; obj != nil {
			return st.get(obj)
		}
		if obj := w.info.Defs[e]; obj != nil {
			return st.get(obj)
		}
		return Taint{}
	case *ast.ParenExpr:
		return w.eval(e.X, st)
	case *ast.SelectorExpr:
		if _, ok := w.info.Selections[e]; ok {
			return w.eval(e.X, st) // field/method of X: inherits X's taint
		}
		// Qualified identifier (pkg.Name).
		if obj := w.info.Uses[e.Sel]; obj != nil {
			return st.get(obj)
		}
		return Taint{}
	case *ast.IndexExpr:
		if _, ok := w.info.Instances[identOf(e.X)]; ok {
			return Taint{} // generic instantiation, not an index
		}
		return w.eval(e.X, st).union(w.eval(e.Index, st))
	case *ast.IndexListExpr:
		return Taint{}
	case *ast.SliceExpr:
		return w.eval(e.X, st)
	case *ast.StarExpr:
		return w.eval(e.X, st)
	case *ast.UnaryExpr:
		t := w.eval(e.X, st)
		if e.Op == token.ARROW {
			// Receiving from a channel: arrival order across concurrent
			// senders is scheduler-dependent.
			t.Kinds |= ChanOrder
		}
		return t
	case *ast.BinaryExpr:
		return w.eval(e.X, st).union(w.eval(e.Y, st))
	case *ast.CallExpr:
		return w.call(e, st)
	case *ast.TypeAssertExpr:
		return w.eval(e.X, st)
	case *ast.CompositeLit:
		return w.composite(e, st)
	case *ast.KeyValueExpr:
		return w.eval(e.Value, st)
	case *ast.FuncLit:
		return Taint{} // analyzed as its own graph
	default:
		return Taint{}
	}
}

func (w *walker) composite(cl *ast.CompositeLit, st state) Taint {
	var all Taint
	sink, mask := fieldSinkFor(w.info.Types[cl].Type)
	for _, elt := range cl.Elts {
		field := ""
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok {
				field = id.Name
			}
		}
		t := w.eval(val, st)
		all = all.union(t)
		if sink != "" && w.onSink != nil {
			m := mask
			if tv, ok := w.info.Types[val]; ok {
				m = adjustForTimeTyped(m, tv.Type)
			}
			w.onSink(val.Pos(), t, sink+" field "+field, m)
		}
	}
	return all
}

// call evaluates a call expression in single-value context.
func (w *walker) call(call *ast.CallExpr, st state) Taint {
	var u Taint
	for _, t := range w.callResults(call, 1, st) {
		u = u.union(t)
	}
	return u
}

// callResults evaluates a call expression — conversions, builtins, taint
// sources, sanitizers, sink functions, and module-local summaries — and
// returns the taint of each of its n results. Module-local callees get
// per-result precision from their summary; everything else is uniform.
func (w *walker) callResults(call *ast.CallExpr, n int, st state) []Taint {
	uniform := func(t Taint) []Taint {
		ts := make([]Taint, n)
		for i := range ts {
			ts[i] = t
		}
		return ts
	}

	// Conversion T(x): the value's taint passes through.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return uniform(w.eval(call.Args[0], st))
		}
		return uniform(Taint{})
	}

	fn := StaticCallee(w.info, call)

	// Argument taints, receiver first for method calls. A method
	// EXPRESSION T.M(recv, ...) passes the receiver as Args[0], which the
	// plain loop already aligns; only a bound call x.M(...) contributes
	// x separately here.
	var argTaints []Taint
	if fn != nil && fn.Signature().Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if tv, ok := w.info.Types[sel.X]; !ok || !tv.IsType() {
				argTaints = append(argTaints, w.eval(sel.X, st))
			}
		}
	}
	for _, a := range call.Args {
		argTaints = append(argTaints, w.eval(a, st))
	}
	var union Taint
	for _, t := range argTaints {
		union = union.union(t)
	}

	// Builtins.
	if id := identOf(call.Fun); id != nil {
		if _, ok := w.info.Uses[id].(*types.Builtin); ok {
			switch id.Name {
			case "append", "min", "max", "copy":
				return uniform(union)
			case "len", "cap":
				// Counts are order-independent; wall/rand-derived sizes
				// would be odd enough that dropping them is acceptable.
				return uniform(Taint{})
			default:
				return uniform(Taint{})
			}
		}
	}

	if fn != nil {
		if k := sourceKind(fn); k != 0 {
			u := union
			u.Kinds |= k
			return uniform(u)
		}
		if sanitizesFirstArg(fn) {
			// sort.X(s) orders s in place: order taint on s dies here.
			if len(call.Args) > 0 {
				root := rootObj(w.info, call.Args[0])
				if t, ok := st[root]; ok {
					t.Kinds &^= OrderKinds
					st.set(root, t)
				}
			}
			return uniform(Taint{})
		}
		if sortedReturn(fn) {
			u := union
			u.Kinds &^= OrderKinds
			return uniform(u)
		}

		w.callSinks(fn, call, argTaints, st)

		if local := w.funcs.ByObj[fn]; local != nil {
			// Module-local callee: apply its summary per result, so a
			// tainted error message does not contaminate co-returned values.
			s := w.sums[fn]
			ts := make([]Taint, n)
			for ri := range ts {
				rt := s.ret(ri)
				res := Taint{Kinds: rt.Kinds}
				for pi, at := range argTaints {
					if pi < 32 && rt.Params&(1<<pi) != 0 {
						res = res.union(at)
					}
				}
				ts[ri] = res
			}
			if s != nil {
				for _, ps := range s.ParamSinks {
					if ps.Param >= len(argTaints) {
						continue
					}
					at := argTaints[ps.Param]
					if w.onSink != nil {
						w.onSink(call.Pos(), at, ps.Sink+" via call to "+fn.Name(), ps.Mask)
					}
				}
			}
			return ts
		}
		// Unknown (stdlib) callee: taint flows through (fmt.Sprintf of a
		// tainted value is tainted).
		return uniform(union)
	}
	// Dynamic call through a function value.
	return uniform(union)
}

// callSinks checks sink positions at a call site: HTTP response writes,
// report emitters, and store cache keys.
func (w *walker) callSinks(fn *types.Func, call *ast.CallExpr, argTaints []Taint, st state) {
	if w.onSink == nil {
		return
	}
	local := w.funcs.ByObj[fn] != nil

	// 1. A call with an http.ResponseWriter argument or receiver is a
	// response write: order-dependent bytes reach the client (Prometheus
	// scrape bodies, SSE frames). Wall-clock values are legitimate in
	// responses (timestamps, rate gauges), so only order kinds gate.
	// Module-local callees are skipped — their summaries model the flow
	// precisely (and fleetJSON(w, code, v) should blame report.WriteJSON's
	// v, not every argument next to a writer).
	if !local && (receiverIsResponseWriter(w.info, call) || callHasResponseWriterArg(w.info, call)) {
		off := argOffset(call, argTaints)
		for i, a := range call.Args {
			if isResponseWriter(w.info.Types[a].Type) {
				continue
			}
			w.onSink(a.Pos(), argTaints[i+off], "HTTP response write ("+fn.Name()+")", OrderKinds)
		}
	}

	// 2. Report emitters: everything the report package renders lands in
	// golden-compared artifacts, so argument ORDER nondeterminism is a
	// bug. (Wall-clock values — submission timestamps in status JSON —
	// are legitimate report payload.)
	if fn.Pkg() != nil && fn.Pkg().Name() == "report" && !isStd(fn.Pkg().Path()) {
		off := argOffset(call, argTaints)
		for i := range call.Args {
			if i+off < len(argTaints) {
				w.onSink(call.Args[i].Pos(), argTaints[i+off], "report emitter "+fn.Name(), OrderKinds)
			}
		}
	}

	// 3. Store cache keys: a nondeterministic key silently forks the
	// content-addressed result cache, so EVERY kind gates.
	if fn.Pkg() != nil && (fn.Pkg().Name() == "store" || fn.Pkg().Name() == "experiments") && !isStd(fn.Pkg().Path()) {
		sig := fn.Signature()
		off := argOffset(call, argTaints)
		for pi := 0; pi < sig.Params().Len(); pi++ {
			if sig.Params().At(pi).Name() != "key" {
				continue
			}
			if pi < len(call.Args) && pi+off < len(argTaints) {
				w.onSink(call.Args[pi].Pos(), argTaints[pi+off], "store key argument of "+fn.Name(), AllKinds)
			}
		}
	}
}

// argOffset is how many leading entries of argTaints belong to the
// receiver rather than call.Args.
func argOffset(call *ast.CallExpr, argTaints []Taint) int {
	return len(argTaints) - len(call.Args)
}

// fieldWriteSink flags writes into metrics.Stats / campaign Result fields.
func (w *walker) fieldWriteSink(sel *ast.SelectorExpr, t Taint, st state) {
	if w.onSink == nil {
		return
	}
	tv, ok := w.info.Types[sel.X]
	if !ok {
		return
	}
	sink, mask := fieldSinkFor(tv.Type)
	if sink == "" {
		return
	}
	if ft, ok := w.info.Types[sel]; ok {
		mask = adjustForTimeTyped(mask, ft.Type)
	}
	w.onSink(sel.Pos(), t, sink+" field "+sel.Sel.Name, mask)
}

// fieldSinkFor classifies t as a simulation-result type whose fields are
// observable output: metrics.Stats (every simulated statistic the golden
// fingerprints pin) and the campaign Result row.
func fieldSinkFor(t types.Type) (string, Kind) {
	if namedIs(t, "metrics", "Stats") {
		return "metrics.Stats", AllKinds
	}
	if namedIs(t, "campaign", "Result") {
		return "campaign.Result", AllKinds
	}
	return "", 0
}

// adjustForTimeTyped drops WallClock for time.Time / time.Duration typed
// slots: a field DECLARED to hold wall time is wall time by design.
func adjustForTimeTyped(mask Kind, t types.Type) Kind {
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		o := n.Obj()
		if o.Pkg() != nil && o.Pkg().Path() == "time" && (o.Name() == "Time" || o.Name() == "Duration") {
			return mask &^ WallClock
		}
	}
	return mask
}

func sourceKind(fn *types.Func) Kind {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return WallClock
		}
	case "math/rand", "math/rand/v2":
		// Package-level draws use the runtime-seeded global source.
		// Constructors (New, NewSource, NewPCG, ...) and methods on an
		// explicitly constructed generator are assumed deterministically
		// seeded and stay clean.
		if fn.Signature().Recv() == nil && !strings.HasPrefix(fn.Name(), "New") && fn.Name() != "Seed" {
			return MathRand
		}
	case "maps":
		switch fn.Name() {
		case "Keys", "Values":
			return MapOrder
		}
	}
	return 0
}

func sanitizesFirstArg(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable", "Sort":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

func sortedReturn(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if pkg.Path() != "slices" {
		return false
	}
	switch fn.Name() {
	case "Sorted", "SortedFunc", "SortedStableFunc":
		return true
	}
	return false
}

func receiverIsResponseWriter(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if tv, ok := info.Types[sel.X]; ok {
		return isResponseWriter(tv.Type)
	}
	return false
}

func callHasResponseWriterArg(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if tv, ok := info.Types[a]; ok && isResponseWriter(tv.Type) {
			return true
		}
	}
	return false
}

func isResponseWriter(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Name() == "ResponseWriter" && o.Pkg() != nil && o.Pkg().Path() == "net/http"
}

func namedIs(t types.Type, pkgName, typeName string) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := n.Obj()
	return o.Name() == typeName && o.Pkg() != nil && o.Pkg().Name() == pkgName
}

// isStd reports whether an import path looks like standard library: no
// dot in its first segment. Fixture-mode sibling packages keep their bare
// names and are not standard.
func isStd(path string) bool {
	switch path {
	case "report", "store", "experiments":
		return false
	}
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".")
}

func isIntegerScalar(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// rootObj unwraps an lvalue-ish expression to its base identifier's
// object: s.jobs[id].state -> s. Returns nil when the base is not a plain
// identifier (a call result, say).
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			if _, ok := info.Selections[x]; !ok {
				// Qualified identifier: pkg.Var is its own root.
				return info.Uses[x.Sel]
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}
