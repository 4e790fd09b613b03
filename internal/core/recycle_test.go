package core

import (
	"path/filepath"
	"testing"
	"unsafe"
)

// TestRecycledLayoutsMatchGolden runs every pinned layout twice in one
// process on one Spares, releasing each processor after its run, and
// checks that both passes reproduce the golden fingerprints. Each build
// takes the storage the previous, different layout released (the
// 400-cycle-memory layout after the 512-entry-ROB one, for instance), so
// every structure the two share starts dirty. By the second pass every
// shape has been seen, so no build may allocate a tag array or a
// ROB-entry slab: each takes over its predecessor's hierarchy and slab.
func TestRecycledLayoutsMatchGolden(t *testing.T) {
	var sp Spares
	for pass := 0; pass < 2; pass++ {
		got := map[string]string{}
		for _, lc := range layoutCases() {
			var spare, used storage
			if n := len(sp.free); n > 0 {
				spare = sp.free[n-1]
			}
			got[lc.name], used = layoutFingerprint(t, lc, layoutTraceLen, &sp)
			if pass == 1 && used.mem != spare.mem {
				t.Errorf("%s: second-pass build allocated its tag arrays", lc.name)
			}
			if pass == 1 && unsafe.SliceData(used.slab) != unsafe.SliceData(spare.slab) {
				t.Errorf("%s: second-pass build allocated a ROB-entry slab", lc.name)
			}
		}
		checkLayoutGolden(t, filepath.Join("testdata", "layout_golden.json"), got)
	}
	// One build at a time never needs a second machine.
	if n := sp.Len(); n != 1 {
		t.Errorf("%d spare machines after one-at-a-time builds, want 1", n)
	}
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
