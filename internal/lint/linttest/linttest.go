// Package linttest is the golden-fixture harness for the smtlint analyzers,
// mirroring x/tools' analysistest: a fixture package under testdata/src is
// loaded and analyzed, and every expected diagnostic is declared in the
// fixture itself with a trailing comment of the form
//
//	code // want "regexp" "another regexp"
//
// Each pattern must match one diagnostic reported on that line, every
// diagnostic must be claimed by a pattern, and mismatches in either
// direction fail the test.
package linttest

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"clustersmt/internal/lint"
)

// Run loads the fixture package at dir, applies the analyzer, and compares
// diagnostics against the fixture's want comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	m, err := lint.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags := lint.Run(context.Background(), m, []*lint.Analyzer{a})

	wants, err := parseWants(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)

func parseWants(m *lint.Module) ([]*want, error) {
	var wants []*want
	for _, pkg := range m.Targets {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					match := wantRe.FindStringSubmatch(c.Text)
					if match == nil {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					for _, pat := range splitQuoted(match[1]) {
						str, err := strconv.Unquote(pat)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, pat, err)
						}
						re, err := regexp.Compile(str)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, str, err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants, nil
}

// splitQuoted extracts the quoted segments of a want comment tail. Both
// double-quoted (with backslash escapes) and backquoted segments are
// accepted; backquotes keep regexp metacharacters readable.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
				}
				j++
			}
			if j >= len(s) {
				return out
			}
			out = append(out, s[i:j+1])
			i = j
		case '`':
			j := strings.IndexByte(s[i+1:], '`')
			if j < 0 {
				return out
			}
			out = append(out, s[i:i+j+2])
			i += j + 1
		}
	}
	return out
}

func claim(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
