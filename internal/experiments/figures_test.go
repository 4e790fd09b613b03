package experiments_test

import (
	"context"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/figures"
	"clustersmt/internal/metrics"
)

// The paper's figures run as campaigns on this package's runner. These
// tests run each figure end to end on a tiny pool, on a memory-only
// campaign engine as expdriver's figure mode does, and check its shape;
// the reducers' arithmetic is pinned without simulation in
// internal/figures.

// pool is a figure template: at most maxPer workloads of each category at
// traceLen uops per thread.
func pool(traceLen, maxPer int, cats ...string) campaign.Manifest {
	return campaign.Manifest{Categories: cats, MaxPerCategory: maxPer, TraceLens: []int{traceLen}}
}

// tinyPool is two workloads each of ISPEC00 and ISPEC-FSPEC.
func tinyPool(traceLen int) campaign.Manifest { return pool(traceLen, 2, "ispec00", "isfs") }

// runFigure runs f on eng (a fresh memory-only engine when none is given)
// and returns its value.
func runFigure[T any](t *testing.T, f figures.Figure, eng ...*campaign.Engine) T {
	t.Helper()
	e := &campaign.Engine{Resume: true}
	if len(eng) > 0 {
		e = eng[0]
	}
	plan, err := figures.Plan(f)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := figures.Run(context.Background(), e, plan, f)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Value.(T)
}

func TestFig2SeriesComplete(t *testing.T) {
	cs := runFigure[*figures.CategorySeries](t, figures.Fig2(tinyPool(2000), []string{"icount", "cssp"}, []int{32}))
	if len(cs.Categories) != 3 { // 2 categories + AVG
		t.Fatalf("categories %v", cs.Categories)
	}
	for _, s := range []string{"icount/32", "cssp/32"} {
		for _, cat := range cs.Categories {
			if _, ok := cs.Values[s][cat]; !ok {
				t.Errorf("missing %s/%s", s, cat)
			}
		}
	}
	// Per-construction the baseline normalizes to exactly 1 per workload.
	if v := cs.Values["icount/32"]["AVG"]; v != 1 {
		t.Errorf("baseline AVG %v, want 1", v)
	}
}

func TestFig3And4Nonnegative(t *testing.T) {
	f3 := runFigure[*figures.CategorySeries](t, figures.Fig3(tinyPool(2000), []string{"icount", "pc"}))
	if f3.Values["pc"]["AVG"] != 0 {
		t.Errorf("PC copies/ret = %v, private clusters never copy", f3.Values["pc"]["AVG"])
	}
	if f3.Values["icount"]["AVG"] <= 0 {
		t.Error("icount should produce copies")
	}
	f4 := runFigure[*figures.CategorySeries](t, figures.Fig4(tinyPool(2000), []string{"icount"}))
	if f4.Values["icount"]["AVG"] < 0 {
		t.Error("negative stall ratio")
	}
}

func TestFig5FractionsBounded(t *testing.T) {
	res := runFigure[*figures.Fig5Result](t, figures.Fig5(tinyPool(2000), []string{"icount", "cssp"}))
	for cat, byScheme := range res.Frac {
		for s, m := range byScheme {
			for k := 0; k < metrics.NumImbClasses; k++ {
				for kind := 0; kind < 2; kind++ {
					v := m[k][kind]
					if v < 0 || v > 1 {
						t.Errorf("%s/%s class %d kind %d = %v outside [0,1]", cat, s, k, kind, v)
					}
				}
			}
		}
	}
}

func TestFig9RowsComplete(t *testing.T) {
	res := runFigure[*figures.Fig9Result](t, figures.Fig9(pool(1500, 2, "isfs"), []string{"cssp", "cdprf"}))
	if len(res.Workloads) != 4 { // 2 workloads + AVG + AVG All
		t.Fatalf("rows %v", res.Workloads)
	}
	last := res.Workloads[len(res.Workloads)-1]
	if last != "AVG All" {
		t.Errorf("last row %q", last)
	}
	for _, row := range res.Workloads {
		for _, s := range res.Schemes {
			if res.Speedup[row][s] <= 0 {
				t.Errorf("%s/%s speedup %v", row, s, res.Speedup[row][s])
			}
		}
	}
}

func TestFig10FairnessPositive(t *testing.T) {
	cs := runFigure[*figures.CategorySeries](t, figures.Fig10(pool(1500, 2, "ispec00"), []string{"cssp"}))
	if cs.Values["cssp"]["AVG"] <= 0 {
		t.Errorf("fairness ratio %v", cs.Values["cssp"]["AVG"])
	}
}

func TestHeadlineRuns(t *testing.T) {
	h := runFigure[*figures.HeadlineResult](t, figures.Headline(tinyPool(1500)))
	if h.CDPRFSpeedup <= 0 || h.CSSPSpeedup <= 0 || h.FairnessRatio <= 0 {
		t.Errorf("degenerate headline %+v", h)
	}
	if h.BestCategory == "" {
		t.Error("no best category")
	}
}

// TestClusterScalingShape runs the cluster-scaling figure on a tiny pool
// and checks its structural physics: every series present for every
// category, zero inter-cluster copies on a single cluster, and nonzero
// copies once there is more than one cluster to copy between.
func TestClusterScalingShape(t *testing.T) {
	res := runFigure[*figures.ClusterScalingResult](t,
		figures.ClusterScaling(pool(2000, 1, "ispec00"), []string{"icount"}, []int{1, 2}))
	for _, cs := range []*figures.CategorySeries{res.IPC, res.Copies, res.IQStalls} {
		for _, name := range []string{"icount/c1", "icount/c2"} {
			for _, cat := range cs.Categories {
				if _, ok := cs.Values[name][cat]; !ok {
					t.Errorf("missing %s/%s", name, cat)
				}
			}
		}
	}
	if v := res.Copies.Values["icount/c1"]["AVG"]; v != 0 {
		t.Errorf("one-cluster machine reported %v copies/retired", v)
	}
	if v := res.Copies.Values["icount/c2"]["AVG"]; v <= 0 {
		t.Errorf("two-cluster machine reported %v copies/retired, want > 0", v)
	}
	if res.IPC.Values["icount/c1"]["AVG"] <= 0 || res.IPC.Values["icount/c2"]["AVG"] <= 0 {
		t.Error("IPC series empty")
	}
	header, rows := res.CSV()
	if len(header) != 6 {
		t.Errorf("CSV header %v", header)
	}
	// categories (ispec00 + AVG) x schemes x cluster counts
	if want := 2 * 1 * 2; len(rows) != want {
		t.Errorf("CSV emitted %d rows, want %d", len(rows), want)
	}
}

func TestFutureWorkRuns(t *testing.T) {
	out := runFigure[map[string]float64](t, figures.FutureWork(pool(1500, 1, "ispec00")))
	for _, s := range []string{"cssp", "cdprf", "dcra", "hillclimb"} {
		if out[s] <= 0 {
			t.Errorf("%s speedup %v", s, out[s])
		}
	}
}
