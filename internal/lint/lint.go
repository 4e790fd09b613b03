// Package lint is a small, dependency-free static-analysis framework for
// this repository: a stripped-down analogue of golang.org/x/tools/go/analysis
// built on the standard library's go/ast and go/types.
//
// The upstream analysis framework is the natural home for checks like these,
// but this module deliberately carries zero external dependencies (go.sum is
// empty and must stay that way), so the three pieces an analyzer needs —
// a package loader, a pass abstraction, and a fixture test harness — are
// implemented here directly. Analyzers keep the upstream shape (Name, Doc,
// Run(*Pass)) so they could be ported to x/tools/go/analysis mechanically if
// the dependency policy ever changes.
//
// Directives recognized in source comments:
//
//	//smtlint:noalloc
//	    On a function, method, or interface-method declaration: the body
//	    (or every implementation reached through the interface) must be
//	    free of allocation-prone constructs. Enforced by the noalloc
//	    analyzer; see its Doc for the exact rules.
//
//	//smtlint:allow <reason>
//	    On (or immediately above) an offending line: suppress smtlint
//	    diagnostics reported for that line. The reason is mandatory; an
//	    allow without one is itself reported. Used for constructs that are
//	    allocation-shaped but provably bounded (append into a pre-sized
//	    ring, pool refill on a cold path) — the reason documents the proof.
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the loaded file set.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one package plus the module-wide
// facts every analyzer may consult (annotations, sibling packages).
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *Package
	TypesInfo *types.Info

	// Module holds every package loaded to analyze this one (the target
	// set plus all in-module dependencies) and the module-wide facts.
	Module *Module

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless the line (or the line above)
// carries an //smtlint:allow directive with a reason.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Module.allowed(position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Noalloc reports whether fn (a function, method, or interface method) is
// annotated //smtlint:noalloc anywhere in the module. Generic instantiations
// are resolved to their origin before lookup.
func (p *Pass) Noalloc(fn *types.Func) bool {
	return p.Module.Noalloc[fn.Origin()]
}

// Run applies each analyzer to each target package of m and returns all
// diagnostics sorted by position. Analyzers see every loaded package via
// pass.Module but report only on the targets.
func Run(m *Module, analyzers []*Analyzer) []Diagnostic {
	return RunConcurrent(context.Background(), m, analyzers, 1)
}

// RunConcurrent is Run with target packages analyzed by up to workers
// goroutines. Type-checking happened once at load time and the module is
// read-only during analysis (the dataflow package's module-level indexes
// are built once behind sync.Once), so packages are embarrassingly
// parallel. Diagnostics collect per-package and merge into one
// deterministically sorted slice, so output order never depends on
// scheduling. A context cancellation
// stops dispatching new packages; diagnostics already produced are
// returned (partial output is marked by the caller's ctx.Err()).
func RunConcurrent(ctx context.Context, m *Module, analyzers []*Analyzer, workers int) []Diagnostic {
	if workers < 1 {
		workers = 1
	}
	perPkg := make([][]Diagnostic, len(m.Targets))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, pkg := range m.Targets {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var diags []Diagnostic
			for _, a := range analyzers {
				pass := &Pass{
					Analyzer:  a,
					Fset:      m.Fset,
					Files:     pkg.Files,
					Pkg:       pkg,
					TypesInfo: pkg.Info,
					Module:    m,
					diags:     &diags,
				}
				if err := a.Run(pass); err != nil {
					diags = append(diags, Diagnostic{
						Analyzer: a.Name,
						Pos:      token.Position{Filename: pkg.Path},
						Message:  fmt.Sprintf("analyzer failed: %v", err),
					})
				}
			}
			perPkg[i] = diags
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}

// allowed reports whether diagnostics on file:line are suppressed. A
// directive suppresses its own line and the line directly below (so it can
// sit either trailing the offending code or on its own line above it).
// Load fills the directives and analysis only reads them, so concurrent
// calls from RunConcurrent need no lock.
func (m *Module) allowed(file string, line int) bool {
	for _, l := range []int{line, line - 1} {
		if reason, ok := m.allows[allowKey{file, l}]; ok && reason != "" {
			return true
		}
	}
	return false
}

type allowKey struct {
	file string
	line int
}

// collectDirectives scans a parsed file for smtlint directives: noalloc
// annotations on function and interface-method declarations, and allow
// suppressions anywhere.
func (m *Module) collectDirectives(pkg *Package, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "smtlint:allow") {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(text, "smtlint:allow"))
			pos := m.Fset.Position(c.Pos())
			m.allows[allowKey{pos.Filename, pos.Line}] = reason
			if reason == "" {
				m.badAllows = append(m.badAllows, pos)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if hasNoallocDirective(n.Doc) {
				if obj, ok := pkg.Info.Defs[n.Name].(*types.Func); ok {
					m.Noalloc[obj] = true
				}
			}
			return false // directives never nest inside bodies
		case *ast.InterfaceType:
			for _, field := range n.Methods.List {
				if len(field.Names) == 0 {
					continue // embedded interface
				}
				if hasNoallocDirective(field.Doc) || hasNoallocDirective(field.Comment) {
					if obj, ok := pkg.Info.Defs[field.Names[0]].(*types.Func); ok {
						m.Noalloc[obj] = true
					}
				}
			}
		}
		return true
	})
}

func hasNoallocDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "smtlint:noalloc" {
			return true
		}
	}
	return false
}

// BadAllows returns the positions of //smtlint:allow directives written
// without a reason. The driver reports them: a suppression with no recorded
// justification is exactly the kind of drift the suite exists to prevent.
func (m *Module) BadAllows() []token.Position {
	return m.badAllows
}
