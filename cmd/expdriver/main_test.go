package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigureModeRejectsUnknownCategory runs the driver in a child process:
// an unknown -categories key must exit 2 with the manifest's message
// instead of printing a row of zeros.
func TestFigureModeRejectsUnknownCategory(t *testing.T) {
	if os.Getenv("EXPDRIVER_TEST_MAIN") == "1" {
		os.Args = []string{"expdriver", "-exp", "fig3", "-categories", "bogus,dh", "-quick", "-len", "1000"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFigureModeRejectsUnknownCategory$")
	cmd.Env = append(os.Environ(), "EXPDRIVER_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown category "bogus"`) {
		t.Errorf("stderr %q does not name the unknown category", stderr.String())
	}
	if strings.Contains(stdout.String(), "Figure 3") {
		t.Errorf("figure printed despite the bad category:\n%s", stdout.String())
	}
}

// TestCampaignModeRejectsOversizedManifest runs expdriver in a child
// process on a tiny manifest whose repetitions would expand to a billion
// items: validation must refuse it with exit 2 before anything is built.
func TestCampaignModeRejectsOversizedManifest(t *testing.T) {
	if path := os.Getenv("EXPDRIVER_TEST_MANIFEST"); path != "" {
		os.Args = []string{"expdriver", "-manifest", path, "-dry-run", "-store", ""}
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "bomb.json")
	if err := os.WriteFile(path, []byte(`{"schemes":["icount"],"repetitions":1000000000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCampaignModeRejectsOversizedManifest$")
	cmd.Env = append(os.Environ(), "EXPDRIVER_TEST_MANIFEST="+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "above the cap") {
		t.Errorf("stderr %q does not name the expansion cap", stderr.String())
	}
}
