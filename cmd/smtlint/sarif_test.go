package main

import (
	"strings"
	"testing"
)

func TestSARIFShape(t *testing.T) {
	var sb strings.Builder
	fs := []finding{{Analyzer: "detcheck", File: "a/b.go", Line: 7, Column: 2, Message: "nondeterministic"}}
	if err := writeSARIF(&sb, analyzers, fs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"version": "2.1.0"`,
		`"ruleId": "detcheck"`,
		`"uri": "a/b.go"`,
		`"startLine": 7`,
		`"uriBaseId": "%SRCROOT%"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SARIF output missing %q", want)
		}
	}
	// Every analyzer registers a rule, plus the driver's own.
	if n := strings.Count(out, `"id": `); n != len(analyzers)+1 {
		t.Errorf("rule count = %d, want %d", n, len(analyzers)+1)
	}
}
