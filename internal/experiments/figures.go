package experiments

import (
	"math"
	"strconv"

	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

// Options selects the workload subset an experiment runs on. The zero value
// reproduces the paper's full pool.
type Options struct {
	// Categories restricts to the named categories (nil = all 11).
	Categories []string
	// MaxPerCategory caps workloads per category (0 = all); quick modes
	// and benchmarks use small caps.
	MaxPerCategory int
}

// categories returns the selected category keys in paper order.
func (o Options) categories() []string {
	if len(o.Categories) == 0 {
		return workload.Categories
	}
	return o.Categories
}

// workloads returns the selected workloads of one category. When capped,
// the subset covers the ILP/MEM/MIX types round-robin so a reduced pool
// keeps the category's behavioural spread.
func (o Options) workloads(cat string) []workload.Workload {
	ws := workload.ByCategory(cat)
	if o.MaxPerCategory <= 0 || len(ws) <= o.MaxPerCategory {
		return ws
	}
	byType := map[workload.Type][]workload.Workload{}
	var order []workload.Type
	for _, w := range ws {
		if len(byType[w.Type]) == 0 {
			order = append(order, w.Type)
		}
		byType[w.Type] = append(byType[w.Type], w)
	}
	var out []workload.Workload
	for len(out) < o.MaxPerCategory {
		progressed := false
		for _, ty := range order {
			if len(byType[ty]) == 0 {
				continue
			}
			out = append(out, byType[ty][0])
			byType[ty] = byType[ty][1:]
			progressed = true
			if len(out) == o.MaxPerCategory {
				break
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// Selected returns every workload the options select, in deterministic
// category order — the exported form of all, reused by the campaign
// manifest expansion so its quick-pool subsets match the figure harness.
func (o Options) Selected() []workload.Workload { return o.all() }

// all returns every selected workload.
func (o Options) all() []workload.Workload {
	var out []workload.Workload
	for _, cat := range o.categories() {
		out = append(out, o.workloads(cat)...)
	}
	return out
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

// iqStudySpec returns the §5.1 spec for a workload/scheme at an IQ size.
func iqStudySpec(w workload.Workload, scheme string, iq int) Spec {
	return Spec{Workload: w, Scheme: scheme, IQSize: iq,
		RegsPerClust: unbounded, ROBPerThread: unbounded, SingleThread: -1}
}

// rfStudySpec returns the §5.2 spec at a register-file size.
func rfStudySpec(w workload.Workload, scheme string, regs int) Spec {
	return Spec{Workload: w, Scheme: scheme, IQSize: 32,
		RegsPerClust: regs, ROBPerThread: boundROB, SingleThread: -1}
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

// A row lists the runs a figure needs of one workload; a reducer turns
// their stats, in row order, into one value per cell (NaN: no value).
type (
	rowFunc    func(workload.Workload) []Spec
	reduceFunc func(workload.Workload, []*metrics.Stats) []float64
)

// sweep runs every workload's row in one RunAll and returns each
// workload's stats in row order.
func sweep(r *Runner, ws []workload.Workload, row rowFunc) ([][]*metrics.Stats, error) {
	var specs []Spec
	ends := make([]int, len(ws))
	for i, w := range ws {
		specs = append(specs, row(w)...)
		ends[i] = len(specs)
	}
	st, err := r.RunAll(specs)
	if err != nil {
		return nil, err
	}
	out := make([][]*metrics.Stats, len(ws))
	start := 0
	for i, end := range ends {
		out[i] = st[start:end:end]
		start = end
	}
	return out, nil
}

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

// categoryMeans sweeps row over the selected workloads, reduces each with
// val to a vector of cells, and averages every cell within each selected
// category and over all of them. It returns the row labels (category
// display names, then "AVG") and the cell means of each row.
func categoryMeans(r *Runner, o Options, cells int, row rowFunc, val reduceFunc) ([]string, [][]float64, error) {
	cats := o.categories()
	var ws []workload.Workload
	ends := make([]int, len(cats))
	for i, cat := range cats {
		ws = append(ws, o.workloads(cat)...)
		ends[i] = len(ws)
	}
	stats, err := sweep(r, ws, row)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, 0, len(cats)+1)
	means := make([][]float64, 0, len(cats)+1)
	all := newMeanAcc(cells)
	start := 0
	for i, cat := range cats {
		acc := newMeanAcc(cells)
		for k := start; k < ends[i]; k++ {
			v := val(ws[k], stats[k])
			acc.add(v)
			all.add(v)
		}
		start = ends[i]
		labels = append(labels, workload.DisplayName(cat))
		means = append(means, acc.means())
	}
	return append(labels, "AVG"), append(means, all.means()), nil
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

// categorySweep is categoryMeans with one cell per named series.
func categorySweep(r *Runner, o Options, names []string, row rowFunc, val reduceFunc) (*CategorySeries, error) {
	labels, means, err := categoryMeans(r, o, len(names), row, val)
	if err != nil {
		return nil, err
	}
	return seriesOf(labels, means, names, 1, 0), nil
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

// speedups averages each (scheme, size) series' per-workload IPC over
// Icount's at the base size, per category. Series are named
// "<scheme>/<size>" and ordered size-major.
func speedups(r *Runner, o Options, schemes []string, sizes []int, base int,
	spec func(workload.Workload, string, int) Spec) (*CategorySeries, error) {
	var names []string
	for _, n := range sizes {
		for _, s := range schemes {
			names = append(names, seriesName(s, n))
		}
	}
	row := func(w workload.Workload) []Spec {
		specs := []Spec{spec(w, "icount", base)}
		for _, n := range sizes {
			for _, s := range schemes {
				specs = append(specs, spec(w, s, n))
			}
		}
		return specs
	}
	return categorySweep(r, o, names, row, relIPC)
}

// Fig2 reproduces Figure 2: throughput of the seven issue-queue schemes at
// 32 and 64 IQ entries per cluster, normalized per workload to Icount with
// 32 entries, averaged per category. Series are named "<scheme>/<iq>".
func Fig2(r *Runner, o Options, schemes []string, iqSizes []int) (*CategorySeries, error) {
	return speedups(r, o, schemes, iqSizes, 32, iqStudySpec)
}

// iqRow is the §5.1 row at 32 IQ entries (RF/ROB unbounded): one run per
// scheme.
func iqRow(schemes []string) rowFunc {
	return func(w workload.Workload) []Spec {
		specs := make([]Spec, len(schemes))
		for i, s := range schemes {
			specs[i] = iqStudySpec(w, s, 32)
		}
		return specs
	}
}

// Fig3 reproduces Figure 3: inter-cluster copies per retired instruction
// per scheme at 32 IQ entries.
func Fig3(r *Runner, o Options, schemes []string) (*CategorySeries, error) {
	return categorySweep(r, o, schemes, iqRow(schemes), each((*metrics.Stats).CopiesPerRetired))
}

// Fig4 reproduces Figure 4: issue-queue stalls per retired instruction.
func Fig4(r *Runner, o Options, schemes []string) (*CategorySeries, error) {
	return categorySweep(r, o, schemes, iqRow(schemes), each((*metrics.Stats).IQStallsPerRetired))
}

// Fig5Result maps category -> scheme -> the six stacked fractions.
type Fig5Result struct {
	Categories []string
	Schemes    []string
	// Frac[cat][scheme][class][kind] is the fraction of issuing cycles.
	Frac map[string]map[string][metrics.NumImbClasses][2]float64
}

// Fig5 reproduces Figure 5: the workload-imbalance breakdown for Icount,
// CISP, CSSP and PC at 32 IQ entries.
func Fig5(r *Runner, o Options, schemes []string) (*Fig5Result, error) {
	var fracs []func(*metrics.Stats) float64
	for k := 0; k < metrics.NumImbClasses; k++ {
		for kind := 0; kind < 2; kind++ {
			fracs = append(fracs, func(st *metrics.Stats) float64 {
				return st.ImbalanceFrac(metrics.ImbClass(k), kind)
			})
		}
	}
	labels, means, err := categoryMeans(r, o, len(schemes)*len(fracs), iqRow(schemes), each(fracs...))
	if err != nil {
		return nil, err
	}
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
	return res, nil
}

// Fig6 reproduces Figure 6: throughput of CSSP, CSSPRF and CISPRF with 64
// and 128 registers per kind per cluster, normalized per workload to Icount
// with 64 registers, averaged per category. Series "<scheme>/<regs>".
func Fig6(r *Runner, o Options, schemes []string, regSizes []int) (*CategorySeries, error) {
	return speedups(r, o, schemes, regSizes, 64, rfStudySpec)
}

// rfSpeedups is the §5.2 row at 64 registers per cluster: Icount, then
// one run per scheme (reduced by relIPC to speedups over Icount).
func rfSpeedups(schemes []string) rowFunc {
	return func(w workload.Workload) []Spec {
		specs := []Spec{rfStudySpec(w, "icount", 64)}
		for _, s := range schemes {
			specs = append(specs, rfStudySpec(w, s, 64))
		}
		return specs
	}
}

// withSingles appends each thread's stand-alone run on the §5.2 machine
// to row, the baselines of the fairness metric.
func withSingles(row rowFunc) rowFunc {
	return func(w workload.Workload) []Spec {
		specs := row(w)
		for t := range w.Threads {
			specs = append(specs, Spec{Workload: w, Scheme: "icount", IQSize: 32,
				RegsPerClust: 64, ROBPerThread: boundROB, SingleThread: t})
		}
		return specs
	}
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

// Fig9 reproduces Figure 9: CSSP, CSSPRF, CISPRF and CDPRF on every
// ISPEC-FSPEC workload (64 registers per cluster), normalized to Icount,
// plus the category average and the all-categories average.
func Fig9(r *Runner, o Options, schemes []string) (*Fig9Result, error) {
	res := &Fig9Result{Schemes: schemes, Speedup: map[string]map[string]float64{}}
	row := rfSpeedups(schemes)
	isfs := o.workloads("isfs")
	stats, err := sweep(r, isfs, row)
	if err != nil {
		return nil, err
	}
	acc := newMeanAcc(len(schemes))
	for i, w := range isfs {
		v := relIPC(w, stats[i])
		acc.add(v)
		res.Workloads = append(res.Workloads, w.Name)
		res.Speedup[w.Name] = bySchemes(schemes, v)
	}
	res.Speedup["AVG"] = bySchemes(schemes, acc.means())

	// "AVG All": the same normalized speedups over every category.
	_, means, err := categoryMeans(r, o, len(schemes), row, relIPC)
	if err != nil {
		return nil, err
	}
	res.Speedup["AVG All"] = bySchemes(schemes, means[len(means)-1])
	res.Workloads = append(res.Workloads, "AVG", "AVG All")
	return res, nil
}

// Fig10 reproduces Figure 10: the fairness of Stall, Flush+, CSSP and
// CDPRF relative to Icount, per category (64 registers per cluster).
func Fig10(r *Runner, o Options, schemes []string) (*CategorySeries, error) {
	val := func(w workload.Workload, st []*metrics.Stats) []float64 {
		singles := st[len(st)-len(w.Threads):]
		base := fairness(st[0], singles)
		out := make([]float64, len(schemes))
		for i := range schemes {
			out[i] = math.NaN()
			if base > 0 {
				out[i] = fairness(st[1+i], singles) / base
			}
		}
		return out
	}
	return categorySweep(r, o, schemes, withSingles(rfSpeedups(schemes)), val)
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
func Headline(r *Runner, o Options) (*HeadlineResult, error) {
	// Cells: CSSP speedup, CDPRF speedup, CDPRF fairness over Icount's.
	val := func(w workload.Workload, st []*metrics.Stats) []float64 {
		singles := st[3:]
		fair := math.NaN()
		if base := fairness(st[0], singles); base > 0 {
			fair = fairness(st[2], singles) / base
		}
		return append(relIPC(w, st[:3]), fair)
	}
	labels, means, err := categoryMeans(r, o, 3, withSingles(rfSpeedups([]string{"cssp", "cdprf"})), val)
	if err != nil {
		return nil, err
	}
	avg := means[len(means)-1]
	res := &HeadlineResult{CSSPSpeedup: avg[0], CDPRFSpeedup: avg[1], FairnessRatio: avg[2]}
	for j, m := range means[:len(means)-1] {
		if m[1] > res.BestCategorySpeedup {
			res.BestCategorySpeedup = m[1]
			res.BestCategory = labels[j]
		}
	}
	return res, nil
}

// FutureWork compares CDPRF against the §6 future-work adaptations (DCRA
// and hill-climbing, cluster-aware per this paper's conclusions) as mean
// speedup vs Icount on the Table 1 machine.
func FutureWork(r *Runner, o Options) (map[string]float64, error) {
	schemes := []string{"cssp", "cdprf", "dcra", "hillclimb"}
	_, means, err := categoryMeans(r, o, len(schemes), rfSpeedups(schemes), relIPC)
	if err != nil {
		return nil, err
	}
	return bySchemes(schemes, means[len(means)-1]), nil
}
