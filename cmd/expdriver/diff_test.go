package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiffExitCodes drives `expdriver diff` end to end: 0 when the
// documents match within the tolerance, 1 when a value moves past it, a
// file is unreadable or a document is malformed, and 2 for a wrong number
// of arguments. Campaign result sets take the per-spec IPC path.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	file := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := file("base.json", `{"fig":{"ipc":[2.0,1.5],"label":"a"}}`)
	near := file("near.json", `{"fig":{"ipc":[2.01,1.5],"label":"a"}}`)
	moved := file("moved.json", `{"fig":{"ipc":[2.2,1.5],"label":"a"}}`)
	relabeled := file("relabeled.json", `{"fig":{"ipc":[2.0,1.5],"label":"b"}}`)
	malformed := file("malformed.json", `{"fig":`)
	rsA := file("rs_a.json", `{"campaign":"a","results":[{"label":"x","ipc":1.0}]}`)
	rsB := file("rs_b.json", `{"campaign":"b","results":[{"label":"x","ipc":1.1}]}`)

	cases := []struct {
		args   []string
		code   int
		stdout string // substring; "" = not checked
	}{
		{[]string{base, near}, 0, "documents match within 2.00% tolerance"},
		{[]string{"-tol", "0.001", base, near}, 1, "$.fig.ipc[0]: 2 vs 2.01"},
		{[]string{base, moved}, 1, "$.fig.ipc[0]: 2 vs 2.2"},
		{[]string{base, relabeled}, 1, "$.fig.label: a vs b"},
		{[]string{"-numbers-only", base, relabeled}, 0, "documents match"},
		{[]string{base, malformed}, 1, ""},
		{[]string{base, filepath.Join(dir, "missing.json")}, 1, ""},
		{[]string{base}, 2, ""},
		{[]string{rsA, rsA}, 0, "Campaign diff: a -> a"},
		{[]string{rsA, rsB}, 1, "+10.00%"},
		{[]string{"-tol", "0.2", rsA, rsB}, 0, "+10.00%"},
	}
	for _, c := range cases {
		code, stdout, stderr := runChild(t, append([]string{"diff"}, c.args...)...)
		if code != c.code || !strings.Contains(stdout, c.stdout) {
			t.Errorf("diff %v: exit %d, stdout %q, stderr %q; want exit %d with %q",
				c.args, code, stdout, stderr, c.code, c.stdout)
		}
	}
}
