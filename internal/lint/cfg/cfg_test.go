package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseFunc parses one function body and builds its graph.
func parseFunc(t *testing.T, body string) *Graph {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return New("f", fd.Body)
}

// checkInvariants asserts the structural invariants the package godoc
// promises; shared with the module-wide smoke test.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	if g.Entry == nil || g.Exit == nil {
		t.Fatalf("%s: nil entry/exit", g.Name)
	}
	if len(g.Entry.Preds) != 0 {
		t.Errorf("%s: entry has %d preds", g.Name, len(g.Entry.Preds))
	}
	if len(g.Exit.Succs) != 0 {
		t.Errorf("%s: exit has %d succs", g.Name, len(g.Exit.Succs))
	}
	entries, exits := 0, 0
	for _, b := range g.Blocks {
		switch b.Kind {
		case KindEntry:
			entries++
		case KindExit:
			exits++
		}
	}
	if entries != 1 || exits != 1 {
		t.Errorf("%s: %d entry blocks, %d exit blocks", g.Name, entries, exits)
	}

	// Succs/Preds mirror each other.
	count := func(list []*Block, b *Block) int {
		n := 0
		for _, x := range list {
			if x == b {
				n++
			}
		}
		return n
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if count(s.Preds, b) != count(b.Succs, s) {
				t.Errorf("%s: edge b%d->b%d not mirrored", g.Name, b.Index, s.Index)
			}
		}
	}

	// Everything except (possibly) Exit is reachable from Entry.
	reach := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	for _, b := range g.Blocks {
		if !reach[b] && b != g.Exit {
			t.Errorf("%s: block b%d (%s) unreachable from entry", g.Name, b.Index, b.Kind)
		}
	}

	// Defer blocks form straight chains that terminate at Exit: once
	// registered, a deferred call runs unconditionally on the way out.
	for _, b := range g.Blocks {
		if b.Kind != KindDefer {
			continue
		}
		if len(b.Succs) != 1 {
			t.Errorf("%s: defer block b%d has %d succs, want 1", g.Name, b.Index, len(b.Succs))
			continue
		}
		seen := map[*Block]bool{}
		cur := b
		for cur != g.Exit {
			if seen[cur] {
				t.Errorf("%s: defer chain from b%d cycles", g.Name, b.Index)
				break
			}
			seen[cur] = true
			if cur.Kind != KindDefer {
				t.Errorf("%s: defer chain from b%d passes through non-defer b%d (%s)",
					g.Name, b.Index, cur.Index, cur.Kind)
				break
			}
			cur = cur.Succs[0]
		}
	}
}

func TestStraightLine(t *testing.T) {
	g := parseFunc(t, "x := 1\n_ = x")
	checkInvariants(t, g)
	// entry(+stmts) -> exit
	if len(g.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(g.Blocks))
	}
	if len(g.Entry.Nodes) != 2 {
		t.Errorf("entry nodes = %d, want 2", len(g.Entry.Nodes))
	}
}

func TestIfElseJoin(t *testing.T) {
	g := parseFunc(t, `
x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x`)
	checkInvariants(t, g)
	var cond *Block
	for _, b := range g.Blocks {
		if b.Kind == KindCond {
			cond = b
		}
	}
	if cond == nil {
		t.Fatal("no cond block")
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond succs = %d, want 2 (then/else)", len(cond.Succs))
	}
	// Both branches rejoin: the join block has 2 preds.
	join := cond.Succs[0].Succs[0]
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %d, want 2", len(join.Preds))
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := parseFunc(t, `
x := 0
if x > 0 {
	x = 1
}
_ = x`)
	checkInvariants(t, g)
	for _, b := range g.Blocks {
		if b.Kind == KindCond && len(b.Succs) != 2 {
			t.Errorf("cond succs = %d, want 2 (then + skip)", len(b.Succs))
		}
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := parseFunc(t, `
for i := 0; i < 10; i++ {
	_ = i
}`)
	checkInvariants(t, g)
	var head *Block
	for _, b := range g.Blocks {
		if _, ok := b.Stmt.(*ast.ForStmt); ok {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no loop head")
	}
	// Post block loops back to head: head must have >= 2 preds
	// (entry-side edge + back edge).
	if len(head.Preds) < 2 {
		t.Errorf("loop head preds = %d, want >= 2 (incl. back edge)", len(head.Preds))
	}
}

func TestRangeLoop(t *testing.T) {
	g := parseFunc(t, `
m := map[int]int{}
for k := range m {
	_ = k
}`)
	checkInvariants(t, g)
	found := false
	for _, b := range g.Blocks {
		if _, ok := b.Stmt.(*ast.RangeStmt); ok {
			found = true
			if len(b.Succs) != 2 {
				t.Errorf("range head succs = %d, want 2 (body + after)", len(b.Succs))
			}
		}
	}
	if !found {
		t.Fatal("no loop head")
	}
}

func TestInfiniteLoopPrunesAfter(t *testing.T) {
	g := parseFunc(t, `
for {
	_ = 1
}`)
	checkInvariants(t, g)
	// The after-block is unreachable and pruned; Exit remains (structural)
	// but nothing reaches it.
	if len(g.Exit.Preds) != 0 {
		t.Errorf("exit preds = %d, want 0 for for{}", len(g.Exit.Preds))
	}
}

func TestBreakReachesAfter(t *testing.T) {
	g := parseFunc(t, `
for {
	break
}`)
	checkInvariants(t, g)
	if len(g.Exit.Preds) == 0 {
		t.Error("break out of for{} should reach exit")
	}
}

func TestDeferChain(t *testing.T) {
	g := parseFunc(t, `
defer println("a")
defer println("b")
x := 1
_ = x`)
	checkInvariants(t, g)
	defers := 0
	for _, b := range g.Blocks {
		if b.Kind == KindDefer {
			defers++
		}
	}
	if defers != 2 {
		t.Fatalf("defer blocks = %d, want 2", defers)
	}
	// Exit's only predecessor path is through the defer chain: the last
	// registered defer runs first, so the chain is b->a->exit and the
	// direct exit pred must be the FIRST registered defer ("a").
	if len(g.Exit.Preds) != 1 || g.Exit.Preds[0].Kind != KindDefer {
		t.Fatalf("exit preds = %v, want single defer block", g.Exit.Preds)
	}
}

func TestConditionalReturnRoutesThroughDefer(t *testing.T) {
	g := parseFunc(t, `
defer println("cleanup")
x := 0
if x > 0 {
	return
}
x = 2
_ = x`)
	checkInvariants(t, g)
	// Both the early return and the fallthrough exit must pass the defer:
	// the defer block has 2 preds.
	for _, b := range g.Blocks {
		if b.Kind == KindDefer && len(b.Preds) != 2 {
			t.Errorf("defer preds = %d, want 2 (early return + fallthrough)", len(b.Preds))
		}
	}
}

func TestPanicExits(t *testing.T) {
	g := parseFunc(t, `
x := 0
if x > 0 {
	panic("boom")
}
_ = x`)
	checkInvariants(t, g)
	// The panic block's successor is exit (no defers).
	found := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanic(es.X) {
				found = true
				if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
					t.Errorf("panic block succs = %v, want [exit]", b.Succs)
				}
			}
		}
	}
	if !found {
		t.Fatal("panic statement not found in any block")
	}
}

func TestSwitchNoDefaultMaySkip(t *testing.T) {
	g := parseFunc(t, `
x := 0
switch x {
case 1:
	x = 10
case 2:
	x = 20
}
_ = x`)
	checkInvariants(t, g)
	var cond *Block
	for _, b := range g.Blocks {
		if b.Kind == KindCond {
			cond = b
		}
	}
	if cond == nil {
		t.Fatal("no cond block")
	}
	// 2 clauses + skip edge.
	if len(cond.Succs) != 3 {
		t.Errorf("switch cond succs = %d, want 3 (2 cases + skip)", len(cond.Succs))
	}
}

func TestSelectDefault(t *testing.T) {
	g := parseFunc(t, `
ch := make(chan int)
select {
case v := <-ch:
	_ = v
default:
}`)
	checkInvariants(t, g)
	var cond *Block
	for _, b := range g.Blocks {
		if b.Kind == KindCond {
			cond = b
		}
	}
	if cond == nil {
		t.Fatal("no cond block")
	}
	if len(cond.Succs) != 2 {
		t.Errorf("select cond succs = %d, want 2 (comm + default)", len(cond.Succs))
	}
}

func TestGotoForwardAndBack(t *testing.T) {
	g := parseFunc(t, `
	i := 0
loop:
	i++
	if i < 10 {
		goto loop
	}
	_ = i`)
	checkInvariants(t, g)
}

func TestLabeledBreakContinue(t *testing.T) {
	g := parseFunc(t, `
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == 1 {
				continue outer
			}
			if i == 2 {
				break outer
			}
		}
	}`)
	checkInvariants(t, g)
}

func TestFallthrough(t *testing.T) {
	g := parseFunc(t, `
x := 0
switch x {
case 0:
	x = 1
	fallthrough
case 1:
	x = 2
default:
	x = 3
}
_ = x`)
	checkInvariants(t, g)
}

func TestBuildAllNamesAndLiterals(t *testing.T) {
	src := `package p

type T struct{}

func (t *T) M() {
	f := func() {
		g := func() {}
		g()
	}
	f()
}

func Plain() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fgs := BuildAll([]*ast.File{f})
	var names []string
	for _, fg := range fgs {
		names = append(names, fg.Graph.Name)
		checkInvariants(t, fg.Graph)
	}
	want := []string{"(*T).M", "(*T).M$1", "(*T).M$1$1", "Plain"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("names = %v, want %v", names, want)
	}
}

// TestModuleCFGInvariants is the module-wide smoke test: build a CFG for
// every function in every package of this module and assert the structural
// invariants hold. It parses with go/parser directly (no type checking
// needed), so _test.go files AND testdata fixtures are covered — fixtures
// intentionally contain bug-shaped code, which is exactly the code the
// builder must not choke on.
func TestModuleCFGInvariants(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	funcs := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		for _, fg := range BuildAll([]*ast.File{f}) {
			funcs++
			checkInvariants(t, fg.Graph)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if funcs < 100 {
		t.Fatalf("smoke test built only %d function graphs — module walk looks broken", funcs)
	}
	t.Logf("checked %d function graphs", funcs)
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test dir")
		}
		dir = parent
	}
}
