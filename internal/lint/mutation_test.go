package lint_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"clustersmt/internal/lint"
)

// These tests demonstrate that the analyzers guard the invariants they were
// built for: a copy of the module source receives a realistic regression —
// an allocation introduced into the simulated cycle's call graph, an error
// check deleted from the store codec — and the corresponding analyzer must
// catch it. Invariants checked at run time rather than by an analyzer get
// the same treatment: the mutated copy's own package test must fail.

// copyModule copies the module's go.mod and non-test Go sources into a
// temporary directory, preserving layout, and returns the new root.
func copyModule(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
	return dst
}

// mutate rewrites one file under root, replacing old with new exactly once.
func mutate(t *testing.T, root, rel, old, new string) {
	t.Helper()
	path := filepath.Join(root, rel)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), old); n != 1 {
		t.Fatalf("mutation anchor %q occurs %d times in %s, want 1", old, n, rel)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(b), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// findings runs the full analyzer suite over the mutated module and returns
// the diagnostics as strings.
func findings(t *testing.T, root string) []string {
	t.Helper()
	m, err := lint.Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("loading mutated module: %v", err)
	}
	var out []string
	for _, d := range lint.Run(context.Background(), m, all) {
		out = append(out, d.String())
	}
	return out
}

func requireFinding(t *testing.T, got []string, wantSub string) {
	t.Helper()
	for _, g := range got {
		if strings.Contains(g, wantSub) {
			return
		}
	}
	t.Errorf("no finding contains %q; got %d findings:\n%s",
		wantSub, len(got), strings.Join(got, "\n"))
}

// TestMutationStepAllocates introduces a heap allocation into
// Processor.Step's call graph; noalloc must flag it, because the
// steady-state cycle loop is required to be allocation-free.
func TestMutationStepAllocates(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "core", "run.go"),
		"func (p *Processor) Step() {",
		"func (p *Processor) Step() {\n\tscratch := make([]int, 1)\n\t_ = scratch")
	requireFinding(t, findings(t, root), "make allocates")
}

// TestMutationStepWallClock injects a wall-clock-derived value into a
// Processor.Step statistics write; detcheck must flag it, because golden
// fingerprints pin every simulated statistic and a time.Now()-derived
// stat would differ on every run.
func TestMutationStepWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "core", "run.go"),
		"\"context\"\n",
		"\"context\"\n\t\"time\"\n")
	mutate(t, root, filepath.Join("internal", "core", "run.go"),
		"func (p *Processor) Step() {",
		"func (p *Processor) Step() {\n\tp.stats.Cycles += int64(time.Now().Nanosecond())")
	requireFinding(t, findings(t, root),
		"wall-clock time) reaches metrics.Stats field Cycles")
}

// TestMutationCodecDropsError deletes the store codec's stats-decoding
// error check; errflow must flag the dropped error, because a silently
// corrupt entry would decode as zero stats instead of a cache miss.
func TestMutationCodecDropsError(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "campaign", "store", "codec.go"),
		"st, err := decodeStats(payload)\n\tif err != nil {\n\t\treturn nil, fmt.Errorf(\"store: corrupt stats in %s: %w\", key, err)\n\t}",
		"st := &metrics.Stats{}\n\tdecodeStats(payload)")
	requireFinding(t, findings(t, root),
		"error result of decodeStats is dropped")
}

// TestMutationCodecOverwritesError deletes the check on EncodeEntry's
// stats-marshal error, so the entry-marshal assignment overwrites it
// unread; errflow must flag the overwrite, because the failure would be
// lost and an entry with a null stats payload written to the store.
func TestMutationCodecOverwritesError(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "campaign", "store", "codec.go"),
		"payload, err := json.Marshal(st)\n\tif err != nil {\n\t\treturn nil, fmt.Errorf(\"store: marshal stats: %w\", err)\n\t}\n",
		"payload, err := json.Marshal(st)\n")
	requireFinding(t, findings(t, root), "err overwritten before the error assigned on line")
}

// TestMutationClosureDropsError drops an error inside a function literal —
// the store GC's remove helper — rather than a declared function; errflow
// must flag it, because closures (callbacks, goroutine bodies, helpers like
// this one) drop errors as easily as declared functions do, and a failed
// removal would otherwise vanish from the GC's report.
func TestMutationClosureDropsError(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "campaign", "store", "gc.go"),
		"err := os.Remove(path)\n",
		"os.Remove(path)\n\t\tvar err error\n")
	requireFinding(t, findings(t, root),
		"error result of os.Remove is dropped")
}

// TestMutationFairnessBaselinesMapOrdered gathers an item's single-thread
// baselines by ranging over the campaign plan's baseline map instead of
// looking them up thread by thread; detcheck must flag the map-ordered
// slice reaching Result.Fairness, because the baselines would pair with
// the wrong threads' SMT IPCs in a different order on every run.
func TestMutationFairnessBaselinesMapOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "campaign", "plan.go"),
		"\t\tfor t := 0; t < n; t++ {\n\t\t\tbase := it\n\t\t\tbase.Spec.Scheme, base.Spec.SingleThread = \"icount\", t\n\t\t\tif ipc, ok := single[point{it.Campaign, base.Label()}]; ok {\n\t\t\t\tsingles = append(singles, ipc)\n\t\t\t}\n\t\t}\n",
		"\t\tfor pt, ipc := range single {\n\t\t\tif pt.campaign == it.Campaign {\n\t\t\t\tsingles = append(singles, ipc)\n\t\t\t}\n\t\t}\n")
	requireFinding(t, findings(t, root), "nondeterministic value (map iteration order) reaches campaign.Result field Fairness")
}

// TestMutationRunnerChannelOrderUnallowed removes the reasoned allow on
// the campaign engine's item pool, the module's one channel fan-out whose
// received values reach simulated statistics; detcheck must report the
// goroutine-send-order flow, so a new fan-out of that shape cannot land
// without its own reasoned allow.
func TestMutationRunnerChannelOrderUnallowed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "campaign", "engine.go"),
		"\t\t\t\t//smtlint:allow detcheck: channel-delivered index selects which item runs, not what it computes; its row re-keys into rs.Results[i]\n",
		"")
	requireFinding(t, findings(t, root), "nondeterministic value (goroutine send order) reaches metrics.Stats field")
}

// TestMutationQueueSendUnderLock replaces the fleet queue's broadcast wake
// in Close (close and replace the changed channel) with a send on it,
// still under q.mu; lockcheck must flag it, because a send with no ready
// receiver blocks while the lock every lease and completion needs is held.
func TestMutationQueueSendUnderLock(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "campaign", "fleet", "queue.go"),
		"q.closed = true\n\t\tq.signalLocked()",
		"q.closed = true\n\t\tq.changed <- struct{}{}")
	requireFinding(t, findings(t, root), "channel send while holding q.mu")
}

// TestMutationRunLoopIgnoresContext deletes the context poll from the core
// cycle loop in Processor.RunCtx; ctxflow must flag the loop, because a
// campaign DELETE or a dying fleet worker stops a simulation only through
// that poll.
func TestMutationRunLoopIgnoresContext(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy; skipped in -short")
	}
	root := copyModule(t)
	mutate(t, root, filepath.Join("internal", "core", "run.go"),
		"\t\t\tselect {\n\t\t\tcase <-ctx.Done():\n\t\t\t\treturn p.stats, ctx.Err()\n\t\t\tdefault:\n\t\t\t}\n",
		"")
	requireFinding(t, findings(t, root), "long-running loop never observes ctx")
}

// TestMutationSchemeDescBlank blanks the description of the registered
// cdprf scheme; the policy package's registry test must fail on it,
// because the scheme listings (`expdriver schemes`, GET /v1/components,
// the README table check) would then publish an undocumented scheme.
func TestMutationSchemeDescBlank(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and tests a module copy; skipped in -short")
	}
	root := copyModule(t)
	copyTests(t, root, filepath.Join("internal", "policy"))
	mutate(t, root, filepath.Join("internal", "policy", "scheme.go"),
		`Desc: "CSSP plus the proposed dynamic register partition (the paper's best)"`,
		`Desc: ""`)
	out, err := goTest(t, root, "./internal/policy", "TestSchemeRegistry")
	if err == nil {
		t.Fatalf("TestSchemeRegistry passed on a blank cdprf Desc:\n%s", out)
	}
	if want := `scheme "cdprf" registered as name "cdprf", ref "§5.2 Figs. 7–8", desc ""`; !strings.Contains(out, want) {
		t.Errorf("TestSchemeRegistry failed without reporting %q:\n%s", want, out)
	}
}

// copyTests copies the _test.go files of one package directory (rel to the
// module root) into the module copy at dst, which copyModule leaves out.
func copyTests(t *testing.T, dst, rel string) {
	t.Helper()
	src := filepath.Join("..", "..", rel)
	files, err := filepath.Glob(filepath.Join(src, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no test files in %s: %v", src, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, rel, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goTest runs one test of one package in the module copy at root and
// returns its combined output; err is non-nil when the test fails.
func goTest(t *testing.T, root, pkg, test string) (string, error) {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go toolchain not on PATH: %v", err)
	}
	cmd := exec.Command(gobin, "test", "-count=1", "-run", "^"+test+"$", pkg)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); err != nil && !ok {
		t.Fatalf("running go test: %v", err)
	}
	return string(out), err
}
