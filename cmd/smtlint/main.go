// Command smtlint runs the repository's project-specific static analyzers
// over package patterns:
//
//	go run ./cmd/smtlint ./...
//
// Analyzers (see DESIGN.md §9 and each package's doc comment):
//
//	noalloc      //smtlint:noalloc functions must not allocate
//	confighash   every Canonical()-hashed config field reaches the store key
//	lockcheck    no blocking operation under a service mutex
//	registryref  policy registrations carry Ref/Desc and sane param bounds
//	detcheck     no nondeterministic values in simulation outputs
//	ctxflow      long-running loops and entry points observe cancellation
//	errflow      no dropped or overwritten errors in service/fleet/store
//
// Packages are analyzed in parallel (one worker per CPU); type-checking
// happens once at load and is shared by every analyzer. Output is plain
// text by default, `-json` for machine consumption, `-sarif` for code
// scanners. There is no suppression file: a finding is silenced only by
// an //smtlint:allow directive that gives a reason.
//
// Exit status is nonzero when any diagnostic is reported.
// The tool is pure standard library (this module carries no
// dependencies), so it runs anywhere the repo builds — no module
// download, no separate install.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"clustersmt/internal/lint"
	"clustersmt/internal/lint/confighash"
	"clustersmt/internal/lint/ctxflow"
	"clustersmt/internal/lint/detcheck"
	"clustersmt/internal/lint/errflow"
	"clustersmt/internal/lint/lockcheck"
	"clustersmt/internal/lint/noalloc"
	"clustersmt/internal/lint/registryref"
)

// A finding is one diagnostic in the driver's output shape (module-relative
// file, 1-based line/column).
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

var analyzers = []*lint.Analyzer{
	noalloc.Analyzer,
	confighash.Analyzer,
	lockcheck.Analyzer,
	registryref.Analyzer,
	detcheck.Analyzer,
	ctxflow.Analyzer,
	errflow.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: smtlint [-list] [-json|-sarif] [packages]\n\n")
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

	var findings []finding
	for _, pos := range m.BadAllows() {
		findings = append(findings, finding{
			Analyzer: "smtlint",
			File:     relToRoot(m.Root, pos.Filename),
			Line:     pos.Line,
			Column:   pos.Column,
			Message:  "//smtlint:allow requires a reason",
		})
	}
	for _, d := range lint.RunConcurrent(context.Background(), m, analyzers, runtime.GOMAXPROCS(0)) {
		findings = append(findings, finding{
			Analyzer: d.Analyzer,
			File:     relToRoot(m.Root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}

	switch {
	case *sarifOut:
		writeSARIF(os.Stdout, analyzers, findings)
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		enc.Encode(findings)
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "smtlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// relToRoot renders file paths module-relative (with forward slashes) so
// reports and SARIF artifacts are stable across checkouts.
func relToRoot(root, file string) string {
	if root == "" {
		return file
	}
	if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return filepath.ToSlash(rel)
	}
	return file
}
