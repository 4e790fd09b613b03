package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// childArgsEnv carries a child process's expdriver arguments, one per
// line; TestMain runs main on them instead of the tests.
const childArgsEnv = "EXPDRIVER_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgsEnv); ok {
		os.Args = append([]string{"expdriver"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runChild runs expdriver with args in a child process (main calls
// os.Exit, so it cannot run in the test's own) and returns its exit code
// and output.
func runChild(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\n"))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running child: %v", err)
	}
	return code, out.String(), errb.String()
}

// TestFigureModeRejectsUnknownCategory: an unknown -categories key must
// exit 2 with the manifest's message instead of printing a row of zeros.
func TestFigureModeRejectsUnknownCategory(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	code, stdout, stderr := runChild(t, "-exp", "fig3", "-categories", "bogus,dh", "-quick", "-len", "1000", "-store", store)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown category "bogus"`) {
		t.Errorf("stderr %q does not name the unknown category", stderr)
	}
	if strings.Contains(stdout, "Figure 3") {
		t.Errorf("figure printed despite the bad category:\n%s", stdout)
	}
	if _, err := os.Stat(store); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("store opened before the flags were checked (stat: %v)", err)
	}
}

// TestFigureModeRejectsBadFlags: an unknown experiment, or a length or
// machine-shape flag outside the manifest's axis bounds, must exit 2
// naming the flag before anything runs, rather than run nothing, panic,
// print an all-zero figure or silently run the Table 1 machine.
func TestFigureModeRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus"}, `unknown experiment "bogus"`},
		{[]string{"-exp", "fig2", "-len", "-5"}, "-len: axis trace_lens value -5 below minimum 1000"},
		{[]string{"-exp", "fig2", "-len", "0"}, "-len: axis trace_lens value 0 below minimum 1000"},
		{[]string{"-exp", "fig2", "-len", "1000", "-clusters", "-3"}, "-clusters: axis num_clusters value -3 below minimum 1"},
		{[]string{"-exp", "fig2", "-len", "1000", "-clusters", "5"}, "-clusters: axis num_clusters value 5 above maximum 4"},
		{[]string{"-exp", "fig2", "-len", "1000", "-links", "-1"}, "-links: axis links value -1 below minimum 1"},
		{[]string{"-exp", "fig2", "-len", "1000", "-link-latency", "-2"}, "-link-latency: axis link_latency value -2 below minimum 1"},
		{[]string{"-exp", "fig2", "-len", "1000", "-mem-latency", "-5"}, "-mem-latency: axis mem_latency value -5 below minimum 1"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store")
			code, stdout, stderr := runChild(t, append(c.args, "-quick", "-categories", "dh", "-store", store)...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr %q does not contain %q", stderr, c.want)
			}
			if stdout != "" {
				t.Errorf("stdout not empty:\n%s", stdout)
			}
			if _, err := os.Stat(store); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("store opened before the flags were checked (stat: %v)", err)
			}
		})
	}
}

// executedRE reads the executed count off figure mode's tally line.
var executedRE = regexp.MustCompile(`(?m)^figures: \d+ items — (\d+) executed, `)

// TestFigureModeWarmRerun: the headline's simulations land in the -store,
// so a second run on it simulates nothing and writes byte-identical JSON;
// a dry run lists exactly the items the first run simulated and runs
// nothing.
func TestFigureModeWarmRerun(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	args := []string{"-exp", "headline", "-quick", "-len", "2000", "-store", store}

	code, stdout, stderr := runChild(t, append(args, "-dry-run", "-v")...)
	if code != 0 {
		t.Fatalf("dry run: exit = %d\nstderr: %s", code, stderr)
	}
	listed := strings.Count(stdout, "\n")
	if !strings.Contains(stderr, "figures: "+strconv.Itoa(listed)+" simulations would run (dry run; nothing executed)") {
		t.Errorf("dry run listed %d items; stderr %q", listed, stderr)
	}
	if strings.Contains(stderr, "ipc=") {
		t.Errorf("dry run simulated:\n%s", stderr)
	}
	if _, err := os.Stat(store); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("dry run opened the store (stat: %v)", err)
	}

	var out [2][]byte
	for i, want := range []int{listed, 0} {
		js := filepath.Join(dir, "headline"+strconv.Itoa(i)+".json")
		code, _, stderr := runChild(t, append(args, "-json", js)...)
		if code != 0 {
			t.Fatalf("run %d: exit = %d\nstderr: %s", i, code, stderr)
		}
		m := executedRE.FindStringSubmatch(stderr)
		if m == nil || m[1] != strconv.Itoa(want) {
			t.Errorf("run %d: tally %q, want %d executed", i, stderr, want)
		}
		b, err := os.ReadFile(js)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Errorf("warm re-run JSON differs:\n%s\nvs\n%s", out[0], out[1])
	}
}

// TestFigureModeNoResumeExecutesDryRunCount: with -resume=false each item
// several figures' campaigns share (a figure's base point and its sweep,
// the headline and Fig. 10) still simulates once, so the run executes
// exactly the items its dry run lists.
func TestFigureModeNoResumeExecutesDryRunCount(t *testing.T) {
	args := []string{"-exp", "all", "-quick", "-len", "2000", "-categories", "dh", "-store", ""}
	code, stdout, stderr := runChild(t, append(args, "-dry-run")...)
	if code != 0 {
		t.Fatalf("dry run: exit = %d\nstderr: %s", code, stderr)
	}
	listed := strings.Count(stdout, "\n")
	code, _, stderr = runChild(t, append(args, "-resume=false")...)
	if code != 0 {
		t.Fatalf("run: exit = %d\nstderr: %s", code, stderr)
	}
	if m := executedRE.FindStringSubmatch(stderr); m == nil || m[1] != strconv.Itoa(listed) {
		t.Errorf("-resume=false tally %q, want the dry run's %d executed", stderr, listed)
	}
}

// TestCampaignModeRejectsOversizedManifest runs expdriver on a tiny
// manifest whose repetitions would expand to a billion items: validation
// must refuse it with exit 2 before anything is built.
func TestCampaignModeRejectsOversizedManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bomb.json")
	if err := os.WriteFile(path, []byte(`{"schemes":["icount"],"repetitions":1000000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runChild(t, "-manifest", path, "-dry-run", "-store", "")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "above the cap") {
		t.Errorf("stderr %q does not name the expansion cap", stderr)
	}
}
