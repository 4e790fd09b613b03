package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimGolden pins `expdriver sim`'s report byte for byte. The goldens
// are the output of the standalone single-run binary it replaced, so the
// one construction path (experiments.Programs and experiments.Machine)
// reproduces that binary's seeds, warm-up and machine exactly.
func TestSimGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"sim_default.golden", nil},
		{"sim_single1.golden", []string{"-single", "1"}},
		{"sim_pc_iq64_regs128.golden", []string{"-scheme", "pc", "-iq", "64", "-regs", "128", "-len", "20000"}},
		{"sim_server_mix.golden", []string{"-workload", "server.mix.2.1", "-len", "60000"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := runSim(c.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("report drifted from %s\ngot:\n%s\nwant:\n%s", c.golden, got, want)
			}
		})
	}
}

// TestSimRejectsBadFlags: every flag out of range exits 2 with a message
// naming it, before anything is simulated.
func TestSimRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "nope"}, `unknown workload "nope"`},
		{[]string{"-scheme", "bogus"}, `unknown scheme "bogus"`},
		{[]string{"-iq", "3"}, "-iq: axis iq_sizes value 3 below minimum 4"},
		{[]string{"-regs", "-1"}, "-regs: axis regs_per_cluster value -1 below minimum 0"},
		{[]string{"-rob", "-1"}, "-rob: axis rob_per_thread value -1 below minimum 0"},
		{[]string{"-len", "-5"}, "-len: axis trace_lens value -5 below minimum 1000"},
		{[]string{"-single", "2"}, "-single 2: ispec00.mix.2.1 has threads 0-1"},
		{[]string{"-single", "-2"}, "-single -2"},
		{[]string{"stray"}, `unexpected argument "stray"`},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := runSim(c.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
		})
	}
}

// TestSimCycleBoundExits1: a run that wedges (isfs.mix.2.1 under Icount
// with 16 registers per cluster) stops at its cycle bound and exits 1
// without a report.
func TestSimCycleBoundExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runSim([]string{"-workload", "isfs.mix.2.1", "-scheme", "icount", "-regs", "16", "-len", "1000"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "cycle bound") {
		t.Errorf("stderr %q does not name the cycle bound", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("report printed for a bounded run:\n%s", stdout.String())
	}
}
