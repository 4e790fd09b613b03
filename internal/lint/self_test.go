package lint_test

import (
	"context"
	"testing"

	"clustersmt/internal/lint"
	"clustersmt/internal/lint/ctxflow"
	"clustersmt/internal/lint/detcheck"
	"clustersmt/internal/lint/errflow"
	"clustersmt/internal/lint/lockcheck"
	"clustersmt/internal/lint/noalloc"
)

// all mirrors cmd/smtlint's analyzer list (the command package cannot be
// imported from a test).
var all = []*lint.Analyzer{
	noalloc.Analyzer,
	lockcheck.Analyzer,
	detcheck.Analyzer,
	ctxflow.Analyzer,
	errflow.Analyzer,
}

// TestRepoIsLintClean runs the full smtlint suite over the repository,
// pinning the CI gate in the test suite itself: the module stays free of
// smtlint findings and of reason-less allow directives.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	m, err := lint.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pos := range m.BadAllows() {
		t.Errorf("%s: //smtlint:allow requires a reason", pos)
	}
	for _, d := range lint.Run(context.Background(), m, all) {
		t.Errorf("%s", d)
	}
}
