package campaign_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
	"clustersmt/internal/report"
)

// tinyManifest returns a minimal fast campaign: one workload, two schemes,
// two IQ points at the shortest legal trace length.
func tinyManifest() *campaign.Manifest {
	return &campaign.Manifest{
		Name:      "tiny",
		Workloads: []string{"ispec00.mix.2.1"},
		Schemes:   []string{"icount", "cssp"},
		IQSizes:   []int{16, 32},
		TraceLens: []int{1000},
	}
}

func TestManifestValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the expected error; "" = valid
	}{
		{"valid", `{"schemes":["icount"]}`, ""},
		{"unknown scheme", `{"schemes":["icount","nosuchscheme"]}`, "unknown scheme"},
		{"no schemes", `{"schemes":[]}`, "no schemes"},
		{"empty iq axis", `{"schemes":["icount"],"iq_sizes":[]}`, "axis iq_sizes is empty"},
		{"empty regs axis", `{"schemes":["icount"],"regs_per_cluster":[]}`, "axis regs_per_cluster is empty"},
		{"empty rob axis", `{"schemes":["icount"],"rob_per_thread":[]}`, "axis rob_per_thread is empty"},
		{"empty len axis", `{"schemes":["icount"],"trace_lens":[]}`, "axis trace_lens is empty"},
		{"tiny iq", `{"schemes":["icount"],"iq_sizes":[2]}`, "below minimum"},
		{"empty clusters axis", `{"schemes":["icount"],"num_clusters":[]}`, "axis num_clusters is empty"},
		{"zero clusters", `{"schemes":["icount"],"num_clusters":[0]}`, "below minimum"},
		{"five clusters", `{"schemes":["icount"],"num_clusters":[5]}`, "above maximum"},
		{"zero links", `{"schemes":["icount"],"links":[0]}`, "below minimum"},
		{"zero link latency", `{"schemes":["icount"],"link_latency":[0]}`, "below minimum"},
		{"huge mem latency", `{"schemes":["icount"],"mem_latency":[60000]}`, "above maximum"},
		{"valid shape sweep", `{"schemes":["icount"],"num_clusters":[1,2,3,4],"links":[1,2],"link_latency":[1,4],"mem_latency":[60,300]}`, ""},
		{"unknown category", `{"schemes":["icount"],"categories":["nope"]}`, "unknown category"},
		{"unknown workload", `{"schemes":["icount"],"workloads":["nope.ilp.2.9"]}`, "unknown workload"},
		{"typoed field", `{"schemes":["icount"],"iq_size":[32]}`, "unknown field"},
		{"repetitions bomb", `{"schemes":["icount"],"repetitions":1000000000}`, "above the cap"},
		{"axis bomb", `{"schemes":["icount"],"iq_sizes":[4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20],"trace_lens":[1000,2000,3000,4000,5000,6000,7000,8000,9000,10000]}`, "above the cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := campaign.Parse([]byte(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Parse: %v, want valid", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse error = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestExpansionCapIsExact: validation counts a manifest's items exactly —
// baselines included — so a manifest of MaxItems items expands to exactly
// that many, and one repetition more is refused.
func TestExpansionCapIsExact(t *testing.T) {
	const perRep = 4 // two schemes plus two single-thread baselines
	manifest := func(reps int) string {
		return fmt.Sprintf(`{"schemes":["icount","cssp"],"workloads":["dh.ilp.2.1"],"single_thread_baselines":true,"repetitions":%d}`, reps)
	}
	m, err := campaign.Parse([]byte(manifest(campaign.MaxItems / perRep)))
	if err != nil {
		t.Fatal(err)
	}
	items, err := m.Expand()
	if err != nil || len(items) != campaign.MaxItems {
		t.Fatalf("Expand = %d items (%v), want %d", len(items), err, campaign.MaxItems)
	}
	if _, err := campaign.Parse([]byte(manifest(campaign.MaxItems/perRep + 1))); err == nil || !strings.Contains(err.Error(), "above the cap") {
		t.Fatalf("Parse one repetition over the cap: %v, want the cap error", err)
	}
}

// TestDryRunMatchesRun pins the -dry-run contract: the expanded item list
// is exactly what a real run executes — same count, same labels, same
// order.
func TestDryRunMatchesRun(t *testing.T) {
	m := tinyManifest()
	items, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 { // 1 workload x 2 schemes x 2 IQ sizes
		t.Fatalf("expanded %d items, want 4", len(items))
	}
	eng := campaign.Engine{}
	rs, err := eng.RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Total != len(items) || len(rs.Results) != len(items) {
		t.Fatalf("run produced %d/%d results for %d expanded items", rs.Total, len(rs.Results), len(items))
	}
	if rs.Executed+rs.StoreHits+rs.Failed != rs.Total {
		t.Errorf("tally %d+%d+%d != total %d", rs.Executed, rs.StoreHits, rs.Failed, rs.Total)
	}
	if rs.Failed != 0 || rs.Executed != len(items) {
		t.Errorf("executed %d, failed %d; want all %d executed", rs.Executed, rs.Failed, len(items))
	}
	for i, it := range items {
		if rs.Results[i].Label != it.Label() {
			t.Fatalf("result %d label %q != expanded label %q", i, rs.Results[i].Label, it.Label())
		}
	}
}

// TestShapeAxesExpand pins the machine-shape sweep expansion: the cross
// product covers every shape, expanded items always carry explicit shape
// coordinates (Table 1 values when an axis is omitted), labels are unique,
// and — the property the result store depends on — every shape yields a
// distinct content-addressed cache key.
func TestShapeAxesExpand(t *testing.T) {
	m := &campaign.Manifest{
		Name:        "shapes",
		Workloads:   []string{"ispec00.mix.2.1"},
		Schemes:     []string{"icount"},
		TraceLens:   []int{1000},
		NumClusters: []int{1, 2, 3, 4},
		MemLatency:  []int{60, 300},
	}
	items, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 8 { // 4 cluster counts x 2 memory latencies
		t.Fatalf("expanded %d items, want 8", len(items))
	}
	r := experiments.NewRunner(1000)
	labels := map[string]bool{}
	keys := map[string]string{}
	for _, it := range items {
		if it.Spec.Links != 2 || it.Spec.LinkLatency != 1 {
			t.Errorf("%s: omitted link axes not defaulted to Table 1 (lk%d ll%d)",
				it.Label(), it.Spec.Links, it.Spec.LinkLatency)
		}
		if labels[it.Label()] {
			t.Errorf("duplicate label %s", it.Label())
		}
		labels[it.Label()] = true
		key := r.CacheKey(it.Spec)
		if prev, dup := keys[key]; dup {
			t.Errorf("shapes %s and %s share cache key %s", prev, it.Label(), key)
		}
		keys[key] = it.Label()
	}

	// Labels: non-default shapes carry the shape suffix; the Table 1 point
	// keeps the legacy format so pre-shape-axis result sets still diff
	// row-for-row.
	for _, it := range items {
		hasSuffix := strings.Contains(it.Label(), "|c")
		table1 := it.Spec.NumClusters == 2 && it.Spec.MemLatency == 60
		if table1 && hasSuffix {
			t.Errorf("Table 1 point label %q carries a shape suffix (breaks old-campaign diffs)", it.Label())
		}
		if !table1 && !hasSuffix {
			t.Errorf("swept shape label %q lacks the shape suffix", it.Label())
		}
	}

	// The Table 1 shape point must produce the same cache key as a
	// pre-shape-axis spec (all shape fields zero): old stores stay valid.
	legacy := experiments.Spec{
		Workload: items[0].Spec.Workload, Scheme: "icount",
		IQSize: 32, SingleThread: -1,
	}
	var table1 *campaign.Item
	for i := range items {
		if items[i].Spec.NumClusters == 2 && items[i].Spec.MemLatency == 60 {
			table1 = &items[i]
		}
	}
	if table1 == nil {
		t.Fatal("no Table 1 point in the expansion")
	}
	if got, want := r.CacheKey(table1.Spec), r.CacheKey(legacy); got != want {
		t.Errorf("explicit Table 1 shape key %s != legacy zero-shape key %s (old stores invalidated)", got, want)
	}
}

// TestResumeExecutesOnlyMissing simulates a killed campaign: a store
// populated by a partial run. The resumed full campaign must execute only
// the missing specs and recall the rest.
func TestResumeExecutesOnlyMissing(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// The "partial run before the kill": same axes, but only one scheme.
	partial := tinyManifest()
	partial.Schemes = []string{"icount"}
	eng := campaign.Engine{Store: st, Resume: true}
	prs, err := eng.RunCtx(context.Background(), partial, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prs.Executed != 2 || prs.Failed != 0 {
		t.Fatalf("partial run executed %d (failed %d), want 2", prs.Executed, prs.Failed)
	}

	full := tinyManifest()
	rs, err := (&campaign.Engine{Store: st, Resume: true}).RunCtx(context.Background(), full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.StoreHits != 2 || rs.Executed != 2 || rs.Failed != 0 {
		t.Fatalf("resume executed %d, hit %d, failed %d; want exactly the 2 missing specs executed",
			rs.Executed, rs.StoreHits, rs.Failed)
	}
	for _, r := range rs.Results {
		wantCached := r.Scheme == "icount"
		if r.Cached != wantCached {
			t.Errorf("%s: cached=%v, want %v", r.Label, r.Cached, wantCached)
		}
	}

	// Third pass: everything is a hit, nothing executes.
	rs2, err := (&campaign.Engine{Store: st, Resume: true}).RunCtx(context.Background(), full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Executed != 0 || rs2.StoreHits != 4 {
		t.Errorf("re-run executed %d, hit %d; want 0 executed, 4 hits", rs2.Executed, rs2.StoreHits)
	}

	// Resume=false ignores the store and re-executes everything.
	rs3, err := (&campaign.Engine{Store: st, Resume: false}).RunCtx(context.Background(), full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs3.Executed != 4 || rs3.StoreHits != 0 {
		t.Errorf("resume=false executed %d, hit %d; want all 4 re-executed", rs3.Executed, rs3.StoreHits)
	}
}

// TestNoResumeExecutesSharedItemsOnce: Resume=false ignores what the store
// held before the engine ran, but campaigns on one engine still share what
// it computed, so an item two manifests share executes once.
func TestNoResumeExecutesSharedItemsOnce(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A filled store, for the engine to ignore.
	if _, err := (&campaign.Engine{Store: st, Resume: true}).RunCtx(context.Background(), tinyManifest(), nil); err != nil {
		t.Fatal(err)
	}
	eng := &campaign.Engine{Store: st, Resume: false}
	partial := tinyManifest()
	partial.Schemes = []string{"icount"}
	first, err := eng.RunCtx(context.Background(), partial, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 2 || first.StoreHits != 0 {
		t.Errorf("first campaign executed %d, hit %d; want 2 executed despite the filled store", first.Executed, first.StoreHits)
	}
	second, err := eng.RunCtx(context.Background(), tinyManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 2 || second.StoreHits != 2 {
		t.Errorf("second campaign executed %d, hit %d; want only its 2 new items executed", second.Executed, second.StoreHits)
	}
	for _, r := range second.Results {
		if wantCached := r.Scheme == "icount"; r.Cached != wantCached {
			t.Errorf("%s: cached=%v, want %v", r.Label, r.Cached, wantCached)
		}
	}
}

// TestStoreResultsMatchFreshRun asserts recalled results are numerically
// identical to freshly computed ones — the property that makes the store
// safe to trust for figures.
func TestStoreResultsMatchFreshRun(t *testing.T) {
	m := tinyManifest()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := (&campaign.Engine{Store: st, Resume: true}).RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	recalled, err := (&campaign.Engine{Store: st, Resume: true}).RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Results {
		a, b := fresh.Results[i], recalled.Results[i]
		if !b.Cached {
			t.Errorf("%s: second run not recalled", b.Label)
		}
		if a.IPC != b.IPC || a.CopiesPerRet != b.CopiesPerRet || a.IQStallsRet != b.IQStallsRet {
			t.Errorf("%s: recalled metrics differ: %+v vs %+v", a.Label, a, b)
		}
	}
}

// TestRepetitionsDiverge: repetitions must reseed (distinct results and
// distinct store keys), not clone rep 0.
func TestRepetitionsDiverge(t *testing.T) {
	m := tinyManifest()
	m.Schemes = []string{"icount"}
	m.IQSizes = []int{32}
	m.Repetitions = 2
	rs, err := (&campaign.Engine{}).RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 2 {
		t.Fatalf("got %d results, want 2 reps", len(rs.Results))
	}
	a, b := rs.Results[0], rs.Results[1]
	if a.Key == b.Key {
		t.Error("repetitions share a store key")
	}
	if a.IPC == b.IPC {
		t.Error("repetitions produced identical IPC: seed offset not applied")
	}
}

// TestBaselinesEnableFairness: with single-thread baselines on, SMT rows
// carry the §4 fairness metric.
func TestBaselinesEnableFairness(t *testing.T) {
	m := tinyManifest()
	m.Schemes = []string{"icount"}
	m.IQSizes = []int{32}
	m.SingleThreadBaselines = true
	rs, err := (&campaign.Engine{}).RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 3 { // 2 baselines + 1 SMT run
		t.Fatalf("got %d results, want 3", len(rs.Results))
	}
	var smt *campaign.Result
	for i := range rs.Results {
		if rs.Results[i].SingleThread < 0 {
			smt = &rs.Results[i]
		}
	}
	if smt == nil {
		t.Fatal("no SMT result")
	}
	if smt.Fairness <= 0 || smt.Fairness > 1 {
		t.Errorf("fairness = %v, want in (0, 1]", smt.Fairness)
	}
}

// TestResultSetJSONRoundTrip: the emitted artifact must parse back for the
// diff subcommand.
func TestResultSetJSONRoundTrip(t *testing.T) {
	m := tinyManifest()
	m.Schemes = []string{"icount"}
	m.IQSizes = []int{32}
	rs, err := (&campaign.Engine{}).RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rs.json")
	b, err := report.JSON(rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parsed, ok := campaign.ParseResultSet(back)
	if !ok {
		t.Fatal("emitted result set did not parse back")
	}
	rep := campaign.Diff(rs, parsed)
	if bad := rep.Exceeds(0); len(bad) != 0 {
		t.Errorf("self-diff found %d moved specs: %v", len(bad), bad)
	}
}

// TestMultiLengthCampaignMatchesSplit runs a manifest over two trace
// lengths, with single-thread baselines, through one engine's item pool.
// Each row must equal the row of the same label from the manifest split
// into one manifest per length, each on a fresh engine — fairness
// included — and the campaign must simulate exactly the items a dry run
// lists.
func TestMultiLengthCampaignMatchesSplit(t *testing.T) {
	manifest := func(lens ...int) *campaign.Manifest {
		return &campaign.Manifest{
			Name:                  "lens",
			Workloads:             []string{"ispec00.mix.2.1"},
			Schemes:               []string{"icount", "cssp"},
			TraceLens:             lens,
			SingleThreadBaselines: true,
		}
	}
	both := manifest(1000, 1500)
	items, err := both.Expand()
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, it := range items {
		labels[it.Label()] = true
	}
	rs, err := (&campaign.Engine{Workers: 2}).RunCtx(context.Background(), both, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Failed != 0 || rs.Executed != len(labels) {
		t.Fatalf("executed %d, failed %d; want the %d items a dry run lists", rs.Executed, rs.Failed, len(labels))
	}
	split := map[string]campaign.Result{}
	for _, tl := range []int{1000, 1500} {
		one, err := (&campaign.Engine{Workers: 2}).RunCtx(context.Background(), manifest(tl), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range one.Results {
			split[r.Label] = r
		}
	}
	if len(split) != len(rs.Results) {
		t.Fatalf("split manifests gave %d rows, the two-length one %d", len(split), len(rs.Results))
	}
	fair := 0
	for _, r := range rs.Results {
		if r.Fairness != 0 {
			fair++
		}
		if want, ok := split[r.Label]; !ok || !reflect.DeepEqual(r, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", r.Label, r, want)
		}
	}
	if fair != 4 {
		t.Errorf("%d rows carry fairness, want the 4 SMT rows", fair)
	}
}

// putFails is a result store that keeps nothing: every Get misses and
// every Put fails.
type putFails struct{}

func (putFails) Get(string) (*metrics.Stats, bool, error) { return nil, false, nil }
func (putFails) Put(string, *metrics.Stats) error         { return errors.New("disk full") }

// TestEngineCountsStorePutErrors: each result the store refuses counts
// once, including results of a runner recycled while its campaign was
// still running, and the items themselves succeed.
func TestEngineCountsStorePutErrors(t *testing.T) {
	eng := &campaign.Engine{Store: putFails{}, Resume: true, Workers: 1}
	var once sync.Once
	recycleMidRun := func(ev campaign.ItemEvent) {
		if ev.Started {
			once.Do(func() { eng.Recycle() })
		}
	}
	for want := int64(4); want <= 8; want += 4 {
		rs, err := eng.RunCtx(context.Background(), tinyManifest(), recycleMidRun)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Executed != 4 || rs.Failed != 0 {
			t.Fatalf("executed %d, failed %d; want 4 fresh runs despite the failed puts", rs.Executed, rs.Failed)
		}
		if got := eng.StorePutErrors(); got != want {
			t.Errorf("StorePutErrors() = %d, want %d", got, want)
		}
	}
}

// TestCacheKeyStableAcrossRecycle: the content keys an engine reports are
// the keys a fresh runner derives (whose fingerprints
// TestCacheKeyFingerprintMatchesJSON pins byte for byte), before and after
// Recycle drops the runners and their encoding memos, and the resubmission
// after Recycle is answered wholly from the store.
func TestCacheKeyStableAcrossRecycle(t *testing.T) {
	eng := &campaign.Engine{Store: experiments.NewMemStore(), Resume: true, Workers: 1}
	plan, err := campaign.NewPlan(tinyManifest())
	if err != nil {
		t.Fatal(err)
	}
	var first *campaign.ResultSet
	for pass := 0; pass < 2; pass++ {
		rs, err := eng.RunCtx(context.Background(), tinyManifest(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 1 && rs.StoreHits != rs.Total {
			t.Errorf("after Recycle: %d of %d items from the store, want all", rs.StoreHits, rs.Total)
		}
		for i, res := range rs.Results {
			it := plan.Items[i]
			if want := experiments.NewRunner(it.TraceLen).CacheKey(it.Spec); res.Key != want {
				t.Errorf("pass %d, %s: key %s, want %s", pass, res.Label, res.Key, want)
			}
			if first != nil && res.Key != first.Results[i].Key {
				t.Errorf("%s: key changed across Recycle", res.Label)
			}
		}
		first = rs
		eng.Recycle()
	}
}

// TestCycleBoundFailsItem runs a manifest whose one item wedges
// (isfs.mix.2.1 under Icount with 16 registers per cluster): the run that
// hits its cycle bound is a failed item carrying the error, not an
// executed result, and nothing reaches the store.
func TestCycleBoundFailsItem(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := &campaign.Manifest{
		Name:           "wedge",
		Workloads:      []string{"isfs.mix.2.1"},
		Schemes:        []string{"icount"},
		RegsPerCluster: []int{16},
		TraceLens:      []int{1000},
	}
	rs, err := (&campaign.Engine{Store: st, Resume: true}).RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != 0 || rs.Failed != 1 {
		t.Fatalf("executed %d, failed %d; want 0 executed, 1 failed", rs.Executed, rs.Failed)
	}
	if r := rs.Results[0]; !strings.Contains(r.Error, "cycle bound") || r.IPC != 0 {
		t.Errorf("row error %q, ipc %v; want the cycle-bound error and no result", r.Error, r.IPC)
	}
	if rs.Err() == nil {
		t.Error("ResultSet.Err() = nil for a failed item")
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Errorf("store holds %d entries (err %v), want 0", n, err)
	}
}
