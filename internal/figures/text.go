package figures

import (
	"fmt"
	"sort"

	"clustersmt/internal/metrics"
	"clustersmt/internal/report"
)

// The text renderers lay each figure out as report tables whose rows and
// series mirror the paper's plot; each table is followed by a blank line.

func seriesTable(title string, cs *CategorySeries) string {
	header := append([]string{"category"}, cs.Series...)
	var rows [][]string
	for _, cat := range cs.Categories {
		row := []string{cat}
		for _, s := range cs.Series {
			row = append(row, report.F(cs.Values[s][cat]))
		}
		rows = append(rows, row)
	}
	return report.Table(title, header, rows) + "\n"
}

func fig5Text(res *Fig5Result) string {
	header := []string{"category", "scheme"}
	for k := 0; k < metrics.NumImbClasses; k++ {
		for kind := 0; kind < 2; kind++ {
			header = append(header, fmt.Sprintf("%d %s", kind, metrics.ImbClass(k)))
		}
	}
	var rows [][]string
	for _, cat := range res.Categories {
		for _, s := range res.Schemes {
			row := []string{cat, s}
			m := res.Frac[cat][s]
			for k := 0; k < metrics.NumImbClasses; k++ {
				for kind := 0; kind < 2; kind++ {
					row = append(row, report.F(m[k][kind]))
				}
			}
			rows = append(rows, row)
		}
	}
	return report.Table("Figure 5: workload imbalance (fraction of issuing cycles; kind 1 = other cluster had a free port)", header, rows) + "\n"
}

func fig9Text(res *Fig9Result) string {
	header := append([]string{"workload"}, res.Schemes...)
	var rows [][]string
	for _, wl := range res.Workloads {
		row := []string{wl}
		for _, s := range res.Schemes {
			row = append(row, report.F(res.Speedup[wl][s]))
		}
		rows = append(rows, row)
	}
	return report.Table("Figure 9: ISPEC-FSPEC speedups vs Icount (64 regs/cluster)", header, rows) + "\n"
}

func headlineText(h *HeadlineResult) string {
	return report.Table("Headline (paper: CDPRF +17.6% throughput, +24% fairness, up to +40% per category)",
		[]string{"metric", "value"},
		[][]string{
			{"CSSP speedup vs Icount", report.Pct(h.CSSPSpeedup)},
			{"CDPRF speedup vs Icount", report.Pct(h.CDPRFSpeedup)},
			{"CDPRF fairness vs Icount", report.Pct(h.FairnessRatio)},
			{"best category", fmt.Sprintf("%s %s", h.BestCategory, report.Pct(h.BestCategorySpeedup))},
		}) + "\n"
}

func futureText(out map[string]float64) string {
	var names []string
	for s := range out {
		names = append(names, s)
	}
	sort.Strings(names)
	var rows [][]string
	for _, s := range names {
		rows = append(rows, []string{s, report.Pct(out[s])})
	}
	return report.Table("Future work (§6): cluster-aware DCRA and hill-climbing vs CDPRF (speedup vs Icount)",
		[]string{"scheme", "speedup"}, rows) + "\n"
}

func clusterScaleText(res *ClusterScalingResult) string {
	return seriesTable("Cluster scaling: IPC vs cluster count (IQ=32, RF/ROB unbounded)", res.IPC) +
		seriesTable("Cluster scaling: copies per retired instruction", res.Copies) +
		seriesTable("Cluster scaling: IQ stalls per retired instruction", res.IQStalls)
}
