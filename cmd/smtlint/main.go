// Command smtlint runs the repository's project-specific static analyzers
// over package patterns:
//
//	go run ./cmd/smtlint ./...
//
// Analyzers (see DESIGN.md §9 and each package's doc comment):
//
//	noalloc      //smtlint:noalloc functions must not allocate
//	lockcheck    no blocking operation under a service mutex
//	detcheck     no nondeterministic values in simulation outputs
//	ctxflow      long-running loops and entry points observe cancellation
//	errflow      no dropped or overwritten errors in service/fleet/store
//
// Packages are analyzed in parallel (one worker per CPU); type-checking
// happens once at load and is shared by every analyzer. Findings print as
// plain text, one `file:line:col: message [analyzer]` per line. There is
// no suppression file: a finding is silenced only by an //smtlint:allow
// directive that gives a reason.
//
// Exit status is nonzero when any diagnostic is reported.
// The tool is pure standard library (this module carries no
// dependencies), so it runs anywhere the repo builds — no module
// download, no separate install.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"clustersmt/internal/lint"
	"clustersmt/internal/lint/ctxflow"
	"clustersmt/internal/lint/detcheck"
	"clustersmt/internal/lint/errflow"
	"clustersmt/internal/lint/lockcheck"
	"clustersmt/internal/lint/noalloc"
)

var analyzers = []*lint.Analyzer{
	noalloc.Analyzer,
	lockcheck.Analyzer,
	detcheck.Analyzer,
	ctxflow.Analyzer,
	errflow.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: smtlint [-list] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Packages default to ./... relative to the current directory.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	m, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smtlint:", err)
		os.Exit(2)
	}

	n := 0
	for _, pos := range m.BadAllows() {
		fmt.Printf("%s:%d:%d: //smtlint:allow requires a reason [smtlint]\n", relToRoot(m.Root, pos.Filename), pos.Line, pos.Column)
		n++
	}
	for _, d := range lint.Run(context.Background(), m, analyzers) {
		fmt.Printf("%s:%d:%d: %s [%s]\n", relToRoot(m.Root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		n++
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "smtlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// relToRoot renders file paths module-relative (with forward slashes) so
// reports are stable across checkouts.
func relToRoot(root, file string) string {
	if root == "" {
		return file
	}
	if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return filepath.ToSlash(rel)
	}
	return file
}
