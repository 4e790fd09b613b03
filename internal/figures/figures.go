// Package figures reproduces the paper's figures (the index lives in
// DESIGN.md §4) as campaigns. A figure is a few campaign manifests, built
// from one template that carries the pool, the trace length and the
// machine shape, plus a reducer that turns the items' statistics into the
// figure's series. The campaign engine runs them, so figures share the
// result store, dry runs and in-flight deduplication with every other
// campaign.
package figures

import (
	"context"
	"math"
	"slices"
	"strconv"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
	"clustersmt/internal/workload"
)

// A Figure is one reproduction: the campaigns it runs and the reducer that
// turns their results into the figure's value.
type Figure struct {
	// Name is the figure's expdriver -exp key.
	Name string
	// Campaigns share one workload pool and one trace length. A workload's
	// row is the stats of its items across them, in campaign order and,
	// within a campaign, in expansion order.
	Campaigns []*campaign.Manifest
	// reduce turns the rows into the figure's value and its text tables.
	reduce func(rows) (any, string)
}

// rows maps each pool workload's name to its row (see Figure.Campaigns).
type rows map[string][]*metrics.Stats

// newFigure wraps a reducer with a concrete result type and that type's
// text rendering.
func newFigure[T any](name string, campaigns []*campaign.Manifest, reduce func(rows) T, text func(T) string) Figure {
	return Figure{Name: name, Campaigns: campaigns, reduce: func(r rows) (any, string) {
		v := reduce(r)
		return v, text(v)
	}}
}

// Result is one figure's value (its -json form) and text tables.
type Result struct {
	Value any
	Text  string
}

// Plan expands the campaigns of figs, in figs order, into one plan.
func Plan(figs ...Figure) (*campaign.Plan, error) {
	var ms []*campaign.Manifest
	for _, f := range figs {
		ms = append(ms, f.Campaigns...)
	}
	return campaign.NewPlan(ms...)
}

// Run executes plan, which is Plan(figs...), on eng and returns each
// figure's result and the plan's result set. The plan keeps each workload's
// items in campaign and expansion order, so plan order is row order. A
// failed item fails the run; the items that completed stay in eng's store.
func Run(ctx context.Context, eng *campaign.Engine, plan *campaign.Plan, figs ...Figure) ([]Result, *campaign.ResultSet, error) {
	stats := make([]*metrics.Stats, len(plan.Items))
	rs := eng.RunPlan(ctx, plan, func(ev campaign.ItemEvent) {
		stats[ev.Index] = ev.Stats // an item's last event carries its stats
	})
	if rs.Failed > 0 {
		return nil, rs, rs.Err()
	}
	out := make([]Result, len(figs))
	lo := 0
	for f, fig := range figs {
		r, hi := rows{}, lo+len(fig.Campaigns)
		for i, it := range plan.Items {
			if lo <= it.Campaign && it.Campaign < hi {
				r[it.Base] = append(r[it.Base], stats[i])
			}
		}
		out[f].Value, out[f].Text = fig.reduce(r)
		lo = hi
	}
	return out, rs, nil
}

// All returns every figure in -exp order, on campaigns derived from the
// template t. A non-empty schemes replaces the scheme list of every figure
// that takes one (all but the headline and future work).
func All(t campaign.Manifest, schemes []string) []Figure {
	or := func(def ...string) []string {
		if len(schemes) > 0 {
			return schemes
		}
		return def
	}
	return []Figure{
		Fig2(t, or(policy.PaperIQSchemes()...), []int{32, 64}),
		Fig3(t, or(policy.PaperIQSchemes()...)),
		Fig4(t, or(policy.PaperIQSchemes()...)),
		Fig5(t, or("icount", "cisp", "cssp", "pc")),
		Fig6(t, or(policy.PaperRFSchemes()...), []int{64, 128}),
		Fig9(t, or("cssp", "cssprf", "cisprf", "cdprf")),
		Fig10(t, or("stall", "flush+", "cssp", "cdprf")),
		Headline(t),
		FutureWork(t),
		// The cluster-blind baseline and the paper's two headline
		// cluster-aware schemes, over every cluster count a manifest admits.
		ClusterScaling(t, or("icount", "cssp", "cdprf"), []int{1, 2, 3, 4}),
	}
}

// The experiment configurations of §5:
//
//   - the issue-queue study (§5.1, Figs. 2–5) unbounds the register file
//     and ROB "to avoid side effects on these components";
//   - the register-file study (§5.2, Figs. 6, 9, 10) uses the full Table 1
//     machine: 32-entry IQs, 128-entry per-thread ROBs, bounded register
//     files of 64 or 128 registers per kind per cluster.
const (
	unbounded = 0
	boundROB  = 128
)

// iqStudy is the §5.1 campaign: schemes at each IQ size.
func iqStudy(t campaign.Manifest, schemes []string, iqSizes ...int) *campaign.Manifest {
	t.Schemes, t.IQSizes = schemes, iqSizes
	t.RegsPerCluster, t.ROBPerThread = []int{unbounded}, []int{unbounded}
	return &t
}

// rfStudy is the §5.2 campaign: schemes at each register-file size.
func rfStudy(t campaign.Manifest, schemes []string, regs ...int) *campaign.Manifest {
	t.Schemes, t.IQSizes = schemes, []int{32}
	t.RegsPerCluster, t.ROBPerThread = regs, []int{boundROB}
	return &t
}

// rfSpeedups is the §5.2 row at 64 registers per cluster: with singles,
// each thread's stand-alone run (the fairness baselines), then Icount,
// then every scheme.
func rfSpeedups(t campaign.Manifest, schemes []string, singles bool) []*campaign.Manifest {
	base := rfStudy(t, []string{"icount"}, 64)
	base.SingleThreadBaselines = singles
	return []*campaign.Manifest{base, rfStudy(t, schemes, 64)}
}

// poolOf returns the workload selection of the template t.
func poolOf(t campaign.Manifest) experiments.Options {
	return experiments.Options{Categories: t.Categories, MaxPerCategory: t.MaxPerCategory}
}

// CategorySeries holds one value per category plus the overall average,
// keyed as the figures label them.
type CategorySeries struct {
	// Categories is the row order (display names, ending with "AVG").
	Categories []string
	// Values maps series name -> category display name -> value.
	Values map[string]map[string]float64
	// Series is the column order the figure prints its series in.
	Series []string `json:"-"`
}

// A reducer turns one workload's row into one value per cell (NaN: no
// value).
type reduceFunc func(workload.Workload, []*metrics.Stats) []float64

// meanAcc averages cell vectors, summing in the order they are added.
type meanAcc struct {
	sum []float64
	n   []int
}

func newMeanAcc(cells int) *meanAcc {
	return &meanAcc{sum: make([]float64, cells), n: make([]int, cells)}
}

func (a *meanAcc) add(v []float64) {
	for i, x := range v {
		if !math.IsNaN(x) {
			a.sum[i] += x
			a.n[i]++
		}
	}
}

// means returns each cell's mean; a cell without values averages to 0.
func (a *meanAcc) means() []float64 {
	out := make([]float64, len(a.sum))
	for i, s := range a.sum {
		if a.n[i] > 0 {
			out[i] = s / float64(a.n[i])
		}
	}
	return out
}

// categoryWorkloads returns the workloads o selects from category cat.
func categoryWorkloads(o experiments.Options, cat string) []workload.Workload {
	return experiments.Options{Categories: []string{cat}, MaxPerCategory: o.MaxPerCategory}.Selected()
}

// categoryMeans reduces each selected workload's row with val to a vector
// of cells, and averages every cell within each selected category and
// over all of them. It returns the row labels (category display names,
// then "AVG") and the cell means of each row.
func categoryMeans(o experiments.Options, r rows, cells int, val reduceFunc) ([]string, [][]float64) {
	cats := o.Categories
	if len(cats) == 0 {
		cats = workload.Categories
	}
	labels := make([]string, 0, len(cats)+1)
	means := make([][]float64, 0, len(cats)+1)
	all := newMeanAcc(cells)
	for _, cat := range cats {
		acc := newMeanAcc(cells)
		for _, w := range categoryWorkloads(o, cat) {
			v := val(w, r[w.Name])
			acc.add(v)
			all.add(v)
		}
		labels = append(labels, workload.DisplayName(cat))
		means = append(means, acc.means())
	}
	return append(labels, "AVG"), append(means, all.means())
}

// seriesOf lays out categoryMeans output as a CategorySeries: series i
// reads cell i*stride+off.
func seriesOf(labels []string, means [][]float64, names []string, stride, off int) *CategorySeries {
	cs := &CategorySeries{Categories: labels, Values: map[string]map[string]float64{}, Series: names}
	for i, name := range names {
		byCat := map[string]float64{}
		for j, label := range labels {
			byCat[label] = means[j][i*stride+off]
		}
		cs.Values[name] = byCat
	}
	return cs
}

// seriesFigure is a figure whose value is one CategorySeries with one
// cell per named series.
func seriesFigure(name, title string, t campaign.Manifest, campaigns []*campaign.Manifest, names []string, val reduceFunc) Figure {
	o := poolOf(t)
	reduce := func(r rows) *CategorySeries {
		labels, means := categoryMeans(o, r, len(names), val)
		return seriesOf(labels, means, names, 1, 0)
	}
	return newFigure(name, campaigns, reduce, func(cs *CategorySeries) string { return seriesTable(title, cs) })
}

// each reduces every run of a row to fn of its stats.
func each(fns ...func(*metrics.Stats) float64) reduceFunc {
	return func(_ workload.Workload, st []*metrics.Stats) []float64 {
		out := make([]float64, 0, len(st)*len(fns))
		for _, s := range st {
			for _, fn := range fns {
				out = append(out, fn(s))
			}
		}
		return out
	}
}

// relIPC reduces a row to each later run's IPC over the first run's.
func relIPC(_ workload.Workload, st []*metrics.Stats) []float64 {
	out := make([]float64, len(st)-1)
	for i, s := range st[1:] {
		out[i] = s.IPC() / st[0].IPC()
	}
	return out
}

// seriesName names the series of a scheme at one resource size.
func seriesName(scheme string, size int) string {
	return scheme + "/" + strconv.Itoa(size)
}

// speedups is each (scheme, size) series' per-workload IPC over Icount's
// at the base size, averaged per category: the base point, then the sweep.
// Series are named "<scheme>/<size>" and ordered size-major, as the
// sweep's items are.
func speedups(name, title string, t campaign.Manifest, schemes []string, sizes []int, base int,
	study func(campaign.Manifest, []string, ...int) *campaign.Manifest) Figure {
	var names []string
	for _, n := range sizes {
		for _, s := range schemes {
			names = append(names, seriesName(s, n))
		}
	}
	campaigns := []*campaign.Manifest{study(t, []string{"icount"}, base), study(t, schemes, sizes...)}
	return seriesFigure(name, title, t, campaigns, names, relIPC)
}

// Fig2 reproduces Figure 2: throughput of the issue-queue schemes at each
// IQ size per cluster, normalized per workload to Icount with 32 entries,
// averaged per category. Series are named "<scheme>/<iq>".
func Fig2(t campaign.Manifest, schemes []string, iqSizes []int) Figure {
	return speedups("fig2", "Figure 2: throughput speedup vs Icount@32 (RF/ROB unbounded)",
		t, schemes, iqSizes, 32, iqStudy)
}

// Fig3 reproduces Figure 3: inter-cluster copies per retired instruction
// per scheme at 32 IQ entries.
func Fig3(t campaign.Manifest, schemes []string) Figure {
	return seriesFigure("fig3", "Figure 3: inter-cluster copies per retired instruction (IQ=32)",
		t, []*campaign.Manifest{iqStudy(t, schemes, 32)}, schemes, each((*metrics.Stats).CopiesPerRetired))
}

// Fig4 reproduces Figure 4: issue-queue stalls per retired instruction.
func Fig4(t campaign.Manifest, schemes []string) Figure {
	return seriesFigure("fig4", "Figure 4: issue-queue stalls per retired instruction (IQ=32)",
		t, []*campaign.Manifest{iqStudy(t, schemes, 32)}, schemes, each((*metrics.Stats).IQStallsPerRetired))
}

// Fig5Result maps category -> scheme -> the six stacked fractions.
type Fig5Result struct {
	Categories []string
	Schemes    []string
	// Frac[cat][scheme][class][kind] is the fraction of issuing cycles.
	Frac map[string]map[string][metrics.NumImbClasses][2]float64
}

// Fig5 reproduces Figure 5: the workload-imbalance breakdown per scheme
// (the paper shows Icount, CISP, CSSP and PC) at 32 IQ entries.
func Fig5(t campaign.Manifest, schemes []string) Figure {
	var fracs []func(*metrics.Stats) float64
	for k := 0; k < metrics.NumImbClasses; k++ {
		for kind := 0; kind < 2; kind++ {
			fracs = append(fracs, func(st *metrics.Stats) float64 {
				return st.ImbalanceFrac(metrics.ImbClass(k), kind)
			})
		}
	}
	o := poolOf(t)
	reduce := func(r rows) *Fig5Result {
		labels, means := categoryMeans(o, r, len(schemes)*len(fracs), each(fracs...))
		res := &Fig5Result{Categories: labels, Schemes: schemes,
			Frac: map[string]map[string][metrics.NumImbClasses][2]float64{}}
		for j, label := range labels {
			byScheme := map[string][metrics.NumImbClasses][2]float64{}
			for i, s := range schemes {
				var agg [metrics.NumImbClasses][2]float64
				for c, v := range means[j][i*len(fracs) : (i+1)*len(fracs)] {
					agg[c/2][c%2] = v
				}
				byScheme[s] = agg
			}
			res.Frac[label] = byScheme
		}
		return res
	}
	return newFigure("fig5", []*campaign.Manifest{iqStudy(t, schemes, 32)}, reduce, fig5Text)
}

// Fig6 reproduces Figure 6: throughput of the register-file schemes at
// each register-file size per kind per cluster, normalized per workload to
// Icount with 64 registers, averaged per category. Series
// "<scheme>/<regs>".
func Fig6(t campaign.Manifest, schemes []string, regSizes []int) Figure {
	return speedups("fig6", "Figure 6: throughput speedup vs Icount@64regs (IQ=32, ROB=128)",
		t, schemes, regSizes, 64, rfStudy)
}

// fairness computes the §4 fairness metric of an SMT run from the
// workload's stand-alone runs.
func fairness(smt *metrics.Stats, singles []*metrics.Stats) float64 {
	single := make([]float64, len(singles))
	shared := make([]float64, len(singles))
	for t, st := range singles {
		single[t] = st.IPC()
		shared[t] = smt.ThreadIPC(t)
	}
	return metrics.Fairness(single, shared)
}

// Fig9Result is the per-workload CDPRF study on ISPEC-FSPEC.
type Fig9Result struct {
	// Workloads lists ISPEC-FSPEC workload names plus "AVG" and "AVG All".
	Workloads []string
	Schemes   []string
	// Speedup[workload][scheme] is IPC normalized to Icount (64 regs).
	Speedup map[string]map[string]float64
}

// bySchemes keys one value per scheme.
func bySchemes(schemes []string, v []float64) map[string]float64 {
	m := make(map[string]float64, len(schemes))
	for i, s := range schemes {
		m[s] = v[i]
	}
	return m
}

// Fig9 reproduces Figure 9: the register-file schemes on every selected
// ISPEC-FSPEC workload (64 registers per cluster), normalized to Icount,
// plus the category average and the average over every selected category.
// The ISPEC-FSPEC rows run even when the selection leaves that category
// out.
func Fig9(t campaign.Manifest, schemes []string) Figure {
	o := poolOf(t)
	pool := t
	if len(t.Categories) > 0 && !slices.Contains(t.Categories, "isfs") {
		pool.Categories = append(slices.Clone(t.Categories), "isfs")
	}
	reduce := func(r rows) *Fig9Result {
		res := &Fig9Result{Schemes: schemes, Speedup: map[string]map[string]float64{}}
		acc := newMeanAcc(len(schemes))
		for _, w := range categoryWorkloads(o, "isfs") {
			v := relIPC(w, r[w.Name])
			acc.add(v)
			res.Workloads = append(res.Workloads, w.Name)
			res.Speedup[w.Name] = bySchemes(schemes, v)
		}
		res.Speedup["AVG"] = bySchemes(schemes, acc.means())

		// "AVG All": the same normalized speedups over every category.
		_, means := categoryMeans(o, r, len(schemes), relIPC)
		res.Speedup["AVG All"] = bySchemes(schemes, means[len(means)-1])
		res.Workloads = append(res.Workloads, "AVG", "AVG All")
		return res
	}
	return newFigure("fig9", rfSpeedups(pool, schemes, false), reduce, fig9Text)
}

// Fig10 reproduces Figure 10: the fairness of each scheme relative to
// Icount, per category (64 registers per cluster).
func Fig10(t campaign.Manifest, schemes []string) Figure {
	val := func(w workload.Workload, st []*metrics.Stats) []float64 {
		n := len(w.Threads)
		singles := st[:n]
		base := fairness(st[n], singles)
		out := make([]float64, len(schemes))
		for i := range schemes {
			out[i] = math.NaN()
			if base > 0 {
				out[i] = fairness(st[n+1+i], singles) / base
			}
		}
		return out
	}
	return seriesFigure("fig10", "Figure 10: fairness relative to Icount (64 regs/cluster)",
		t, rfSpeedups(t, schemes, true), schemes, val)
}

// HeadlineResult is the paper's §1/§6 summary claim. The JSON form is the
// CI figure-regression artifact, compared against a checked-in golden.
type HeadlineResult struct {
	// CSSPSpeedup and CDPRFSpeedup are mean per-workload throughput
	// speedups vs Icount on the Table 1 machine (64 regs/cluster).
	CSSPSpeedup  float64 `json:"cssp_speedup"`
	CDPRFSpeedup float64 `json:"cdprf_speedup"`
	// FairnessRatio is CDPRF's mean fairness relative to Icount.
	FairnessRatio float64 `json:"fairness_ratio"`
	// BestCategory and BestCategorySpeedup report CDPRF's best category
	// (the first in category order on a tie).
	BestCategory        string  `json:"best_category"`
	BestCategorySpeedup float64 `json:"best_category_speedup"`
}

// Headline reproduces the headline numbers: "17.6% average speedup versus
// Icount improving fairness in 24%", with up to 40% for some category.
func Headline(t campaign.Manifest) Figure {
	o := poolOf(t)
	// Cells: CSSP speedup, CDPRF speedup, CDPRF fairness over Icount's.
	val := func(w workload.Workload, st []*metrics.Stats) []float64 {
		n := len(w.Threads)
		singles, smt := st[:n], st[n:]
		fair := math.NaN()
		if base := fairness(smt[0], singles); base > 0 {
			fair = fairness(smt[2], singles) / base
		}
		return append(relIPC(w, smt), fair)
	}
	reduce := func(r rows) *HeadlineResult {
		labels, means := categoryMeans(o, r, 3, val)
		avg := means[len(means)-1]
		res := &HeadlineResult{CSSPSpeedup: avg[0], CDPRFSpeedup: avg[1], FairnessRatio: avg[2]}
		for j, m := range means[:len(means)-1] {
			if m[1] > res.BestCategorySpeedup {
				res.BestCategorySpeedup = m[1]
				res.BestCategory = labels[j]
			}
		}
		return res
	}
	return newFigure("headline", rfSpeedups(t, []string{"cssp", "cdprf"}, true), reduce, headlineText)
}

// FutureWork compares CDPRF against the §6 future-work adaptations (DCRA
// and hill-climbing, cluster-aware per this paper's conclusions) as mean
// speedup vs Icount on the Table 1 machine.
func FutureWork(t campaign.Manifest) Figure {
	schemes := []string{"cssp", "cdprf", "dcra", "hillclimb"}
	o := poolOf(t)
	reduce := func(r rows) map[string]float64 {
		_, means := categoryMeans(o, r, len(schemes), relIPC)
		return bySchemes(schemes, means[len(means)-1])
	}
	return newFigure("future", rfSpeedups(t, schemes, false), reduce, futureText)
}
