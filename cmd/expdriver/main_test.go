package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
