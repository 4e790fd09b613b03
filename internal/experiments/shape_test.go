package experiments_test

import (
	"strconv"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/figures"
	"clustersmt/internal/policy"
)

// TestPaperShape is the reproduction's acceptance test: on a reduced but
// type-balanced pool it asserts the qualitative findings of §5 —
// who wins, in which order — without pinning absolute numbers.
// It simulates a few hundred runs; skipped with -short.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation batch")
	}
	eng := &campaign.Engine{Resume: true}
	o := pool(30000, 3)
	cs := runFigure[*figures.CategorySeries](t, figures.Fig2(o, policy.PaperIQSchemes(), []int{32, 64}), eng)
	avg := func(s string, iq int) float64 { return cs.Values[s+"/"+strconv.Itoa(iq)]["AVG"] }
	for _, s := range policy.PaperIQSchemes() {
		t.Logf("%-8s iq32 AVG=%.3f  iq64 AVG=%.3f", s, avg(s, 32), avg(s, 64))
	}

	// §5.1: the cluster-sensitive partition is the best issue-queue scheme.
	for _, other := range []string{"icount", "stall", "flush+", "cisp", "pc"} {
		if avg("cssp", 32) <= avg(other, 32) {
			t.Errorf("CSSP (%.3f) should beat %s (%.3f) at 32 entries",
				avg("cssp", 32), other, avg(other, 32))
		}
	}
	// Static partitioning beats the unmanaged baseline.
	if avg("cssp", 32) < 1.05 {
		t.Errorf("CSSP speedup %.3f over Icount too small", avg("cssp", 32))
	}
	// PC loses to the partitioned schemes that keep both clusters shared.
	if avg("pc", 32) >= avg("cssp", 32) {
		t.Error("private clusters should lose to CSSP (workload balance)")
	}
	// More issue-queue entries help every partitioned scheme.
	for _, s := range []string{"icount", "cisp", "cssp", "cspsp"} {
		if avg(s, 64) < avg(s, 32) {
			t.Errorf("%s should improve from 32 to 64 entries (%.3f -> %.3f)",
				s, avg(s, 32), avg(s, 64))
		}
	}
	// Flush+ outperforms Stall (the refinement is strictly gentler).
	if avg("flush+", 32) <= avg("stall", 32) {
		t.Errorf("Flush+ (%.3f) should beat Stall (%.3f)", avg("flush+", 32), avg("stall", 32))
	}

	// §5.2: cluster-sensitive RF partitioning always loses to
	// cluster-insensitive (conflicting decisions with the steering/CSSP).
	f6 := runFigure[*figures.CategorySeries](t, figures.Fig6(o, []string{"cssp", "cssprf", "cisprf", "cdprf"}, []int{64}), eng)
	if f6.Values["cssprf/64"]["AVG"] > f6.Values["cisprf/64"]["AVG"] {
		t.Errorf("CSSPRF (%.3f) should not beat CISPRF (%.3f)",
			f6.Values["cssprf/64"]["AVG"], f6.Values["cisprf/64"]["AVG"])
	}
	// The dynamic scheme recovers the static partition's losses.
	if f6.Values["cdprf/64"]["AVG"] < f6.Values["cisprf/64"]["AVG"]-1e-9 {
		t.Errorf("CDPRF (%.3f) should be at least CISPRF (%.3f)",
			f6.Values["cdprf/64"]["AVG"], f6.Values["cisprf/64"]["AVG"])
	}
	t.Logf("fig6: cssp=%.3f cssprf=%.3f cisprf=%.3f cdprf=%.3f",
		f6.Values["cssp/64"]["AVG"], f6.Values["cssprf/64"]["AVG"],
		f6.Values["cisprf/64"]["AVG"], f6.Values["cdprf/64"]["AVG"])

	// Headline: CDPRF delivers a double-digit speedup over Icount.
	h := runFigure[*figures.HeadlineResult](t, figures.Headline(o), eng)
	t.Logf("headline: cssp=%.3f cdprf=%.3f fairness=%.3f best=%s(%.3f)",
		h.CSSPSpeedup, h.CDPRFSpeedup, h.FairnessRatio, h.BestCategory, h.BestCategorySpeedup)
	if h.CDPRFSpeedup < 1.10 {
		t.Errorf("CDPRF headline speedup %.3f, want >= 1.10 (paper: 1.176)", h.CDPRFSpeedup)
	}
	// Deviation note (DESIGN.md §4, "Known deviations"): the paper
	// reports +24% fairness. Our Icount baseline starves threads less than
	// the authors' (their mechanism: a missing thread invades both issue
	// queues), so the aggregate fairness gain is smaller here; we assert
	// CDPRF does not meaningfully damage fairness while delivering its
	// throughput win.
	if h.FairnessRatio < 0.85 {
		t.Errorf("CDPRF fairness ratio %.3f, want >= 0.85", h.FairnessRatio)
	}
}
