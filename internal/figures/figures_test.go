package figures

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// The reducer tests run each figure's real campaigns on an engine whose
// executor answers every spec with fixed synthetic stats instead of
// simulating, so they pin the row layout the campaigns expand to and the
// reducers' arithmetic at no simulation cost.

// twoCats is the test pool: the first workload of ISPEC00 and of
// ISPEC-FSPEC, both two-thread.
var twoCats = campaign.Manifest{Categories: []string{"ispec00", "isfs"}, MaxPerCategory: 1, TraceLens: []int{1000}}

// outcome is one figure's run: its result and its plan's result set.
type outcome struct {
	Result
	*campaign.ResultSet
}

// run runs f on a memory-only engine whose executor answers each spec with
// synth(spec), and returns the figure's outcome and the number of specs the
// executor answered.
func run(t *testing.T, f Figure, synth func(experiments.Spec) *metrics.Stats) (outcome, int64) {
	t.Helper()
	var calls atomic.Int64
	eng := &campaign.Engine{Resume: true, Exec: func(_ context.Context, _ int, s experiments.Spec) (*metrics.Stats, bool, error) {
		calls.Add(1)
		return synth(s), true, nil
	}}
	plan, err := Plan(f)
	if err != nil {
		t.Fatal(err)
	}
	res, rs, err := Run(context.Background(), eng, plan, f)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{res[0], rs}, calls.Load()
}

// stats is a 1000-cycle run in which thread t commits ipcs[t]*1000 uops.
func stats(ipcs ...float64) *metrics.Stats {
	st := metrics.NewStats(len(ipcs), 2)
	st.Cycles = 1000
	for t, ipc := range ipcs {
		st.Committed[t] = uint64(math.Round(ipc * 1000))
	}
	return st
}

// isfs reports whether s runs the ISPEC-FSPEC workload of twoCats.
func isfs(s experiments.Spec) bool { return s.Workload.Category == "isfs" }

// pick returns a for the ISPEC00 workload and b for the ISPEC-FSPEC one.
func pick(s experiments.Spec, a, b float64) float64 {
	if isfs(s) {
		return b
	}
	return a
}

// near fails unless got equals want to within rounding (a NaN never does).
func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if !(math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

// checkSeries compares every (series, category) value of cs with want.
func checkSeries(t *testing.T, cs *CategorySeries, want map[string][]float64) {
	t.Helper()
	if got := []string{"ISPEC00", "ISPEC-FSPEC", "AVG"}; !reflect.DeepEqual(cs.Categories, got) {
		t.Fatalf("categories %v, want %v", cs.Categories, got)
	}
	for name, vals := range want {
		for i, cat := range cs.Categories {
			near(t, name+" "+cat, cs.Values[name][cat], vals[i])
		}
	}
}

// schemeFactor scales a scheme's IPC over Icount's; ISPEC-FSPEC adds 0.1.
func schemeFactor(s experiments.Spec) float64 {
	f := map[string]float64{"icount": 1, "cssp": 1.2, "cdprf": 1.3, "dcra": 1.05, "hillclimb": 0.9}[s.Scheme]
	if s.Scheme != "icount" {
		f += pick(s, 0, 0.1)
	}
	return f
}

func TestFig2Reducer(t *testing.T) {
	// IPC: scheme factor × 1.5 at 64 entries, on a per-workload base that
	// the normalization cancels.
	synth := func(s experiments.Spec) *metrics.Stats {
		ipc := pick(s, 1, 2) * schemeFactor(s)
		if s.IQSize == 64 {
			ipc *= 1.5
		}
		return stats(ipc/2, ipc/2)
	}
	res, calls := run(t, Fig2(twoCats, []string{"icount", "cssp"}, []int{32, 64}), synth)
	cs := res.Value.(*CategorySeries)
	if want := []string{"icount/32", "cssp/32", "icount/64", "cssp/64"}; !reflect.DeepEqual(cs.Series, want) {
		t.Errorf("series %v, want %v", cs.Series, want)
	}
	checkSeries(t, cs, map[string][]float64{
		"icount/32": {1, 1, 1},
		"cssp/32":   {1.2, 1.3, 1.25},
		"icount/64": {1.5, 1.5, 1.5},
		"cssp/64":   {1.8, 1.95, 1.875},
	})
	// The base point is the sweep's Icount@32: two workloads × four
	// points, each simulated once though listed five times.
	if calls != 8 || res.Executed != 8 || res.Total != 10 {
		t.Errorf("executor calls %d, executed %d of %d items; want 8, 8 of 10", calls, res.Executed, res.Total)
	}
}

func TestFig6Reducer(t *testing.T) {
	synth := func(s experiments.Spec) *metrics.Stats {
		if s.IQSize != 32 || s.ROBPerThread != 128 {
			t.Errorf("spec %+v off the §5.2 machine", s)
		}
		ipc := pick(s, 1, 2) * schemeFactor(s)
		if s.RegsPerClust == 128 {
			ipc *= 1.1
		}
		return stats(ipc/2, ipc/2)
	}
	res, _ := run(t, Fig6(twoCats, []string{"cssp", "cdprf"}, []int{64, 128}), synth)
	checkSeries(t, res.Value.(*CategorySeries), map[string][]float64{
		"cssp/64":   {1.2, 1.3, 1.25},
		"cdprf/64":  {1.3, 1.4, 1.35},
		"cssp/128":  {1.32, 1.43, 1.375},
		"cdprf/128": {1.43, 1.54, 1.485},
	})
}

func TestFig3And4Reducers(t *testing.T) {
	// 2000 committed uops; copies and stalls scale with the scheme factor.
	synth := func(s experiments.Spec) *metrics.Stats {
		st := stats(1, 1)
		st.CopyTransfers = uint64(math.Round(1000 * schemeFactor(s) * pick(s, 1, 2)))
		st.IQStalls = uint64(math.Round(4000 * schemeFactor(s)))
		return st
	}
	f3, _ := run(t, Fig3(twoCats, []string{"icount", "cssp"}), synth)
	checkSeries(t, f3.Value.(*CategorySeries), map[string][]float64{
		"icount": {0.5, 1, 0.75},
		"cssp":   {0.6, 1.3, 0.95},
	})
	f4, _ := run(t, Fig4(twoCats, []string{"icount", "cssp"}), synth)
	checkSeries(t, f4.Value.(*CategorySeries), map[string][]float64{
		"icount": {2, 2, 2},
		"cssp":   {2.4, 2.6, 2.5},
	})
}

func TestFig5Reducer(t *testing.T) {
	// Of 100 issuing cycles, class c kind k is counted 10c+k+1 times, plus
	// 20 for CSSP and 10 more on ISPEC-FSPEC.
	synth := func(s experiments.Spec) *metrics.Stats {
		st := stats(1, 1)
		st.IssueCycles = 100
		for c := 0; c < metrics.NumImbClasses; c++ {
			for k := 0; k < 2; k++ {
				n := 10*c + k + 1 + int(pick(s, 0, 10))
				if s.Scheme == "cssp" {
					n += 20
				}
				st.Imbalance[c][k] = int64(n)
			}
		}
		return st
	}
	res, _ := run(t, Fig5(twoCats, []string{"icount", "cssp"}), synth)
	f5 := res.Value.(*Fig5Result)
	for _, cat := range []string{"ISPEC00", "ISPEC-FSPEC", "AVG"} {
		for _, s := range []string{"icount", "cssp"} {
			extra := map[string]float64{"ISPEC00": 0, "ISPEC-FSPEC": 10, "AVG": 5}[cat]
			if s == "cssp" {
				extra += 20
			}
			for c := 0; c < metrics.NumImbClasses; c++ {
				for k := 0; k < 2; k++ {
					near(t, cat+" "+s, f5.Frac[cat][s][c][k], (float64(10*c+k+1)+extra)/100)
				}
			}
		}
	}
}

func TestFig10Reducer(t *testing.T) {
	// Alone, thread 0 runs at IPC 2 and thread 1 at 1. Icount shares them
	// at 1.0 and 0.8 on ISPEC00 (fairness 0.625) and starves thread 1 on
	// ISPEC-FSPEC (fairness 0: the workload has no value). CSSP shares at
	// 1.0 and 0.5 (fairness 1), Stall at 1.0 and 0.4 (fairness 0.8).
	synth := func(s experiments.Spec) *metrics.Stats {
		switch {
		case s.SingleThread >= 0:
			return stats([]float64{2, 1}[s.SingleThread])
		case s.Scheme == "icount":
			return stats(1, pick(s, 0.8, 0))
		case s.Scheme == "cssp":
			return stats(1, 0.5)
		default:
			return stats(1, 0.4)
		}
	}
	res, _ := run(t, Fig10(twoCats, []string{"cssp", "stall"}), synth)
	checkSeries(t, res.Value.(*CategorySeries), map[string][]float64{
		"cssp":  {1 / 0.625, 0, 1 / 0.625},
		"stall": {0.8 / 0.625, 0, 0.8 / 0.625},
	})
}

func TestHeadlineReducer(t *testing.T) {
	// Alone, thread 0 runs at IPC 2 and thread 1 at 1. Icount shares them
	// at 1.0 and 0.8 on ISPEC00 (fairness 0.625) and starves thread 1 on
	// ISPEC-FSPEC (fairness 0: no fairness value). CSSP and CDPRF run at
	// their factor times Icount's total IPC, split 2:1 (fairness 1).
	synth := func(s experiments.Spec) *metrics.Stats {
		switch {
		case s.SingleThread >= 0:
			return stats([]float64{2, 1}[s.SingleThread])
		case s.Scheme == "icount":
			return stats(1, pick(s, 0.8, 0))
		default:
			ipc := schemeFactor(s) * pick(s, 1.8, 1)
			return stats(ipc*2/3, ipc/3)
		}
	}
	res, _ := run(t, Headline(twoCats), synth)
	h := res.Value.(*HeadlineResult)
	near(t, "cssp speedup", h.CSSPSpeedup, (1.2+1.3)/2)
	near(t, "cdprf speedup", h.CDPRFSpeedup, (1.3+1.4)/2)
	near(t, "fairness ratio", h.FairnessRatio, 1/0.625)
	if h.BestCategory != "ISPEC-FSPEC" {
		t.Errorf("best category %q, want ISPEC-FSPEC", h.BestCategory)
	}
	near(t, "best category speedup", h.BestCategorySpeedup, 1.4)
}

func TestFutureWorkReducer(t *testing.T) {
	synth := func(s experiments.Spec) *metrics.Stats {
		ipc := pick(s, 1, 3) * schemeFactor(s)
		return stats(ipc/2, ipc/2)
	}
	res, _ := run(t, FutureWork(twoCats), synth)
	want := map[string]float64{"cssp": 1.25, "cdprf": 1.35, "dcra": 1.1, "hillclimb": 0.95}
	got := res.Value.(map[string]float64)
	if len(got) != len(want) {
		t.Fatalf("schemes %v, want %v", got, want)
	}
	for s, v := range want {
		near(t, s, got[s], v)
	}
}

func TestFig9Reducer(t *testing.T) {
	// The selection is ISPEC00 and DH: the ISPEC-FSPEC rows still run, and
	// "AVG All" averages the selection only. DH adds 0.3 to every scheme's
	// factor.
	sel := twoCats
	sel.Categories = []string{"ispec00", "dh"}
	synth := func(s experiments.Spec) *metrics.Stats {
		ipc := pick(s, 1, 2) * schemeFactor(s)
		if s.Workload.Category == "dh" && s.Scheme != "icount" {
			ipc += 0.3
		}
		return stats(ipc/2, ipc/2)
	}
	res, _ := run(t, Fig9(sel, []string{"cssp", "cdprf"}), synth)
	f9 := res.Value.(*Fig9Result)
	isfsName := experiments.Options{Categories: []string{"isfs"}, MaxPerCategory: 1}.Selected()[0].Name
	if want := []string{isfsName, "AVG", "AVG All"}; !reflect.DeepEqual(f9.Workloads, want) {
		t.Fatalf("rows %v, want %v", f9.Workloads, want)
	}
	for row, want := range map[string][2]float64{
		isfsName:  {1.3, 1.4},
		"AVG":     {1.3, 1.4},
		"AVG All": {(1.2 + 1.5) / 2, (1.3 + 1.6) / 2},
	} {
		near(t, row+" cssp", f9.Speedup[row]["cssp"], want[0])
		near(t, row+" cdprf", f9.Speedup[row]["cdprf"], want[1])
	}
}

func TestClusterScalingReducer(t *testing.T) {
	// IPC is the cluster count plus the scheme's factor; copies and stalls
	// per retired uop are the cluster count over 10 and over 100.
	synth := func(s experiments.Spec) *metrics.Stats {
		if s.IQSize != 32 || s.RegsPerClust != 0 || s.ROBPerThread != 0 {
			t.Errorf("spec %+v off the §5.1 machine", s)
		}
		ipc := float64(s.NumClusters) + schemeFactor(s) + pick(s, 0, 1)
		st := stats(ipc/2, ipc/2)
		committed := float64(st.TotalCommitted())
		st.CopyTransfers = uint64(math.Round(committed * float64(s.NumClusters) / 10))
		st.IQStalls = uint64(math.Round(committed * float64(s.NumClusters) / 100))
		return st
	}
	res, _ := run(t, ClusterScaling(twoCats, []string{"icount", "cssp"}, []int{1, 4}), synth)
	cs := res.Value.(*ClusterScalingResult)
	if want := []string{"icount/c1", "icount/c4", "cssp/c1", "cssp/c4"}; !reflect.DeepEqual(cs.IPC.Series, want) {
		t.Errorf("series %v, want %v", cs.IPC.Series, want)
	}
	checkSeries(t, cs.IPC, map[string][]float64{
		"icount/c1": {2, 3, 2.5},
		"icount/c4": {5, 6, 5.5},
		"cssp/c1":   {2.2, 3.3, 2.75},
		"cssp/c4":   {5.2, 6.3, 5.75},
	})
	checkSeries(t, cs.Copies, map[string][]float64{"icount/c1": {0.1, 0.1, 0.1}, "cssp/c4": {0.4, 0.4, 0.4}})
	checkSeries(t, cs.IQStalls, map[string][]float64{"icount/c4": {0.04, 0.04, 0.04}, "cssp/c1": {0.01, 0.01, 0.01}})
	header, rows := cs.CSV()
	if len(header) != 6 || len(rows) != 3*2*2 {
		t.Errorf("CSV: %d columns, %d rows; want 6, 12", len(header), len(rows))
	}
}
