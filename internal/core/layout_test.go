package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"clustersmt/internal/policy"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

var updateLayoutGolden = flag.Bool("update-layout-golden", false,
	"regenerate testdata/layout_golden.json from the current implementation")

// layoutFingerprint runs scheme on w under cfg mutations and returns a
// SHA-256 over the complete run statistics plus the memory-hierarchy
// counters. Any behavioral drift in the IQ/ROB/MSHR/wheel storage layouts —
// not just the headline numbers — changes the hash. The processor is
// built on sp's spare storage and released to sp after the run; used is
// the storage it ran on. A nil sp builds a fresh processor.
func layoutFingerprint(t *testing.T, lc layoutCase, n int, sp *Spares) (sum string, used storage) {
	t.Helper()
	w, err := workload.Find(lc.workload)
	if err != nil {
		t.Fatal(err)
	}
	var progs []ThreadProgram
	for i, prof := range w.Threads {
		g := trace.NewGenerator(prof, w.Seeds[i])
		progs = append(progs, ThreadProgram{Trace: g.Generate(n), Profile: prof, Seed: w.Seeds[i]})
	}
	cfg := DefaultConfig(len(progs))
	if lc.mut != nil {
		lc.mut(&cfg)
	}
	p, err := sp.NewScheme(cfg, lc.scheme, progs)
	if err != nil {
		t.Fatalf("NewScheme(%s): %v", lc.scheme, err)
	}
	st := p.Run()
	blob, err := json.Marshal(struct {
		Stats any
		Mem   any
	}{st, p.Mem().Stats()})
	if err != nil {
		t.Fatal(err)
	}
	used = p.storage
	p.Release()
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:]), used
}

// layoutCase is one pinned run: a scheme on a workload, with an optional
// mutation of the Table 1 configuration.
type layoutCase struct {
	name, workload, scheme string
	mut                    func(*Config)
}

// layoutCases enumerates the pinned runs: all 12 named schemes on a fixed
// workload at Table 1 defaults, plus shape variants that stress the
// structures this PR re-laid out (bounded/unbounded ROB ring, tight MOB,
// tiny MSHR table, grown wheel). Every case has the Table 1 cache
// geometry, so consecutive cases can share reused tag arrays.
func layoutCases() []layoutCase {
	var cases []layoutCase
	names := policy.Names()
	sort.Strings(names)
	for _, s := range names {
		cases = append(cases, layoutCase{name: "scheme/" + s, workload: "ispec00.mix.2.1", scheme: s})
	}
	// Shape variants: stress each refactored structure.
	return append(cases,
		layoutCase{"shape/tight-mob", "server.mem.2.1", "icount", func(c *Config) {
			c.MOBSize = 24
		}},
		layoutCase{"shape/tiny-mshr", "server.mem.2.1", "cssp", func(c *Config) {
			c.Cache.MSHRs = 2
		}},
		layoutCase{"shape/unbounded-rob", "ispec00.mix.2.1", "cssp", func(c *Config) {
			c.ROBPerThread = 0
			c.IntRegsPerCluster = 0
			c.FpRegsPerCluster = 0
		}},
		layoutCase{"shape/big-rob", "fspec00.mix.2.1", "cdprf", func(c *Config) {
			c.ROBPerThread = 512
		}},
		layoutCase{"shape/slow-memory", "ispec00.mix.2.1", "icount", func(c *Config) {
			c.Cache.MemLatency = 400 // grown completion wheel
		}},
		layoutCase{"shape/four-clusters", "server.mix.2.1", "cdprf", func(c *Config) {
			c.NumClusters = 4
		}},
	)
}

// layoutTraceLen is the per-thread trace length of every pinned run.
const layoutTraceLen = 6000

// TestLayoutGolden pins bit-identical statistics for every named scheme
// across the PR's memory-layout overhaul (value ROB ring, MOB arena,
// fixed-slot MSHR table, pooled wheel buckets). The golden file was captured
// from the pre-overhaul pointer-based layouts; the optimized layouts must
// reproduce every hash exactly. Regenerate (only when behavior is *supposed*
// to change, alongside a SimVersion bump) with:
//
//	go test ./internal/core -run TestLayoutGolden -update-layout-golden
func TestLayoutGolden(t *testing.T) {
	path := filepath.Join("testdata", "layout_golden.json")

	got := map[string]string{}
	for _, lc := range layoutCases() {
		got[lc.name], _ = layoutFingerprint(t, lc, layoutTraceLen, nil)
	}

	if *updateLayoutGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), path)
		return
	}

	checkLayoutGolden(t, path, got)
}

// checkLayoutGolden compares fingerprints against the pinned golden file.
func checkLayoutGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-layout-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d fingerprints, test produced %d", len(want), len(got))
	}
	for name, wh := range want {
		if gh, ok := got[name]; !ok {
			t.Errorf("%s: case missing from test", name)
		} else if gh != wh {
			t.Errorf("%s: stats fingerprint drifted from the pinned layout-equivalence golden\n got %s\nwant %s", name, gh, wh)
		}
	}
}
