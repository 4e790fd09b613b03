package cfg

import (
	"fmt"
	"go/ast"
	"go/types"
)

// FuncGraph pairs a function (declaration or literal) with its graph.
type FuncGraph struct {
	// Decl is the *ast.FuncDecl, or the *ast.FuncLit for literals.
	Decl ast.Node
	// Type is the function's signature node (shared field so analyzers
	// need not switch on Decl's concrete type).
	Type *ast.FuncType
	// Body is the function body (nil for bodyless declarations).
	Body  *ast.BlockStmt
	Graph *Graph
}

// BuildAll builds one graph per function declaration and function literal
// across the files, in source order. Literals are separate graphs — the
// enclosing graph sees the FuncLit as an opaque value — and are named
// after their host ("Submit$1" for the first literal inside Submit).
func BuildAll(files []*ast.File) []*FuncGraph {
	var out []*FuncGraph
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fg := &FuncGraph{
				Decl: fd,
				Type: fd.Type,
				Body: fd.Body,
			}
			fg.Graph = New(declName(fd), fd.Body)
			out = append(out, fg)
			out = appendLits(out, fg)
		}
	}
	return out
}

// appendLits builds graphs for every function literal nested (at any
// depth) inside host's body.
func appendLits(out []*FuncGraph, host *FuncGraph) []*FuncGraph {
	if host.Body == nil {
		return out
	}
	// Collect direct literals of one function body, then recurse into each
	// so numbering matches nesting ("f$1", "f$1$1", "f$2").
	var direct func(body *ast.BlockStmt, parent *FuncGraph)
	direct = func(body *ast.BlockStmt, parent *FuncGraph) {
		n := 0
		ast.Inspect(body, func(node ast.Node) bool {
			lit, ok := node.(*ast.FuncLit)
			if !ok {
				return true
			}
			n++
			fg := &FuncGraph{
				Decl: lit,
				Type: lit.Type,
				Body: lit.Body,
			}
			fg.Graph = New(fmt.Sprintf("%s$%d", parent.Graph.Name, n), lit.Body)
			out = append(out, fg)
			direct(lit.Body, fg)
			return false // direct recursed; don't double-visit
		})
	}
	direct(host.Body, host)
	return out
}

// declName renders a FuncDecl's display name, "(recv).Name" for methods.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}
