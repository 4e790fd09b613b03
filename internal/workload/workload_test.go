package workload

import (
	"sort"
	"strings"
	"testing"

	"clustersmt/internal/isa"
	"clustersmt/internal/trace"
)

func TestPoolSizeMatchesPaper(t *testing.T) {
	pool := Pool()
	if len(pool) != 120 {
		t.Fatalf("pool has %d workloads, Table 2 says 120", len(pool))
	}
}

func TestPoolCategoryCounts(t *testing.T) {
	counts := map[string]map[Type]int{}
	for _, w := range Pool() {
		if counts[w.Category] == nil {
			counts[w.Category] = map[Type]int{}
		}
		counts[w.Category][w.Type]++
	}
	for _, cat := range Categories {
		wantILP, wantMEM, wantMIX := pairCounts(cat)
		c := counts[cat]
		if c[ILP] != wantILP || c[MEM] != wantMEM || c[MIX] != wantMIX {
			t.Errorf("%s: got %d/%d/%d, want %d/%d/%d",
				cat, c[ILP], c[MEM], c[MIX], wantILP, wantMEM, wantMIX)
		}
	}
	if len(counts) != len(Categories) {
		t.Errorf("%d categories, want %d", len(counts), len(Categories))
	}
}

func TestWorkloadNamesUniqueAndParseable(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Pool() {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %s", w.Name)
		}
		seen[w.Name] = true
		parts := strings.Split(w.Name, ".")
		if len(parts) != 4 || parts[2] != "2" {
			t.Errorf("name %q does not follow <cat>.<type>.2.<i>", w.Name)
		}
		if parts[0] != w.Category || parts[1] != w.Type.String() {
			t.Errorf("name %q inconsistent with fields %s/%s", w.Name, w.Category, w.Type)
		}
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, w := range Pool() {
		if len(w.Threads) != 2 || len(w.Seeds) != 2 {
			t.Fatalf("%s: not a 2-thread workload", w.Name)
		}
		for i, p := range w.Threads {
			if err := p.Validate(); err != nil {
				t.Errorf("%s thread %d: %v", w.Name, i, err)
			}
		}
	}
}

func TestPoolDeterministic(t *testing.T) {
	a, b := Pool(), Pool()
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Threads[0] != b[i].Threads[0] ||
			a[i].Threads[1] != b[i].Threads[1] || a[i].Seeds[0] != b[i].Seeds[0] {
			t.Fatalf("pool not deterministic at %d", i)
		}
	}
}

func TestMixWorkloadsPairILPWithMEM(t *testing.T) {
	// In ordinary categories a MIX workload couples a small-footprint
	// parallel trace with a cold-missing one.
	for _, w := range ByCategory("ispec00") {
		if w.Type != MIX {
			continue
		}
		if w.Threads[0].ColdFrac >= w.Threads[1].ColdFrac {
			t.Errorf("%s: thread0 cold %.4f should be below thread1 %.4f",
				w.Name, w.Threads[0].ColdFrac, w.Threads[1].ColdFrac)
		}
	}
}

func TestISFSRegisterDemandDisjoint(t *testing.T) {
	// ISPEC-FSPEC pairs an integer-RF-heavy trace with an FP-heavy one —
	// the situation §5.2 uses to show static partitioning underutilizes.
	for _, w := range ByCategory("isfs") {
		intSide, fpSide := w.Threads[0], w.Threads[1]
		if intSide.MixFp >= 0.05 {
			t.Errorf("%s: ISPEC side has MixFp=%.2f, want ~0", w.Name, intSide.MixFp)
		}
		if fpSide.MixFp < 0.2 {
			t.Errorf("%s: FSPEC side has MixFp=%.2f, want >= 0.2", w.Name, fpSide.MixFp)
		}
	}
}

func TestMixesSpanCategories(t *testing.T) {
	mixes := ByCategory("mixes")
	if len(mixes) != 32 {
		t.Fatalf("mixes has %d workloads, want 32", len(mixes))
	}
	names := map[string]bool{}
	for _, w := range mixes {
		for _, p := range w.Threads {
			// Profile names embed the source category.
			names[strings.Split(p.Name, ".")[0]] = true
		}
	}
	if len(names) < 5 {
		t.Errorf("mixes draw from only %d source categories", len(names))
	}
}

func TestFind(t *testing.T) {
	w, err := Find("ispec00.ilp.2.1")
	if err != nil || w.Category != "ispec00" {
		t.Fatalf("Find: %v %v", w, err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("Find of unknown workload should error")
	}
}

// TestPoolCachedAndIsolated pins the once-built pool: repeated calls must
// agree with the indexes, and the returned top-level slices must be
// caller-owned (sorting one caller's copy cannot reorder another's).
func TestPoolCachedAndIsolated(t *testing.T) {
	a, b := Pool(), Pool()
	if len(a) != len(b) {
		t.Fatalf("Pool sizes differ: %d vs %d", len(a), len(b))
	}
	// Mutating one copy's order must not leak into a fresh call.
	sort.Slice(a, func(i, j int) bool { return a[i].Name > a[j].Name })
	c := Pool()
	for i := range b {
		if c[i].Name != b[i].Name {
			t.Fatalf("caller sort leaked into the cached pool at %d: %s vs %s", i, c[i].Name, b[i].Name)
		}
	}
	for _, w := range b {
		got, err := Find(w.Name)
		if err != nil || got.Name != w.Name || got.Category != w.Category {
			t.Fatalf("Find(%s) = %v, %v", w.Name, got.Name, err)
		}
	}
	total := 0
	for _, cat := range Categories {
		ws := ByCategory(cat)
		total += len(ws)
		for _, w := range ws {
			if w.Category != cat {
				t.Errorf("ByCategory(%s) returned %s", cat, w.Name)
			}
		}
	}
	if total != len(b) {
		t.Errorf("category index covers %d workloads, pool has %d", total, len(b))
	}
}

func TestNamesSortedComplete(t *testing.T) {
	names := Names()
	if len(names) != 120 {
		t.Fatalf("Names() returned %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatalf("names not strictly sorted at %d: %s <= %s", i, names[i], names[i-1])
		}
	}
}

func TestDisplayName(t *testing.T) {
	if DisplayName("isfs") != "ISPEC-FSPEC" || DisplayName("dh") != "DH" {
		t.Error("display names wrong")
	}
	if DisplayName("office") != "office" {
		t.Error("unknown categories pass through")
	}
}

func TestGeneratorsRunnableFromPool(t *testing.T) {
	// Every profile must produce a usable stream (no panics, sane classes).
	for _, w := range Pool()[:10] {
		for i, p := range w.Threads {
			g := trace.NewGenerator(p, w.Seeds[i])
			for j := 0; j < 500; j++ {
				u := g.Next()
				if !u.Class.Valid() || u.Class == isa.Copy {
					t.Fatalf("%s thread %d produced class %v", w.Name, i, u.Class)
				}
			}
		}
	}
}

func TestCategoryBehaviouralContrast(t *testing.T) {
	// The categories must actually differ on the axes the paper's
	// analysis exercises.
	get := func(cat, kind string) trace.Profile { return traceProfile(cat, kind, 1) }
	if is, fs := get("ispec00", "ilp"), get("fspec00", "ilp"); is.MixFp >= fs.MixFp {
		t.Error("ISPEC00 should have less FP than FSPEC00")
	}
	if il, me := get("server", "ilp"), get("server", "mem"); il.ColdFrac >= me.ColdFrac {
		t.Error("ILP traces should miss less than MEM traces")
	}
	if fp, sv := get("fspec00", "mem"), get("server", "mem"); fp.ChaseFrac >= sv.ChaseFrac {
		t.Error("FP streaming should chase pointers less than TPC")
	}
}

func TestCheckCategories(t *testing.T) {
	if err := CheckCategories(nil); err != nil {
		t.Errorf("nil selection rejected: %v", err)
	}
	if err := CheckCategories(Categories); err != nil {
		t.Errorf("every known category rejected: %v", err)
	}
	err := CheckCategories([]string{"dh", "bogus"})
	if err == nil || !strings.Contains(err.Error(), `unknown category "bogus"`) {
		t.Errorf("CheckCategories(dh, bogus) = %v, want unknown category \"bogus\"", err)
	}
}
