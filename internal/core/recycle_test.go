package core

import (
	"path/filepath"
	"runtime/debug"
	"testing"
)

// TestRecycledLayoutsMatchGolden runs every pinned layout twice in one
// process, releasing each processor after its run, and checks that both
// passes reproduce the golden fingerprints. With the GC off the pool keeps
// every released array, so the second pass builds each layout from tag
// arrays the previous, different layout of the same geometry left dirty
// (the 400-cycle-memory layout after the 512-entry-ROB one, for
// instance). A build that allocates less than the L2 tag array alone was
// recycled; the unbounded-ROB layout allocates more than that either way.
func TestRecycledLayoutsMatchGolden(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cache := DefaultConfig(2).Cache.WithDefaults()
	l2Bytes := uint64(cache.L2Size/cache.LineSize) * (8 + 1 + 8) // tags, valid, lastUse

	cases := layoutCases()
	recycled := 0
	for pass := 0; pass < 2; pass++ {
		got := map[string]string{}
		for _, lc := range cases {
			var built uint64
			got[lc.name], built = layoutFingerprint(t, lc, layoutTraceLen, true)
			if pass == 1 && built < l2Bytes {
				recycled++
			}
		}
		checkLayoutGolden(t, filepath.Join("testdata", "layout_golden.json"), got)
	}
	// A build misses the pool when its goroutine moved to another P since
	// the release, and under the race detector sync.Pool also drops a
	// random share of Puts; both passes must match the golden either way.
	if recycled == 0 {
		t.Fatalf("no second-pass layout was built from recycled tag arrays")
	}
	t.Logf("%d of %d second-pass layouts built below the L2 array's %d bytes", recycled, len(cases), l2Bytes)
}

// TestMemAfterReleasePanics: a released processor never hands out its
// hierarchy, whose arrays may already belong to another simulation.
func TestMemAfterReleasePanics(t *testing.T) {
	p := runScheme(t, "icount", 1000, nil)
	p.Release()
	p.Release() // a second Release is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("Mem after Release did not panic")
		}
	}()
	p.Mem()
}
