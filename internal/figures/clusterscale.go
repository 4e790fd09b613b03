package figures

import (
	"fmt"
	"strconv"

	"clustersmt/internal/campaign"
	"clustersmt/internal/metrics"
)

// ClusterScalingResult is the machine-shape headline figure: how the
// steering schemes scale from one to four back-end clusters. The paper
// evaluates a fixed two-cluster machine (Table 1); its steering baseline
// (Canal/Parcerisa/González) and the round-robin alternative were designed
// for the general N-cluster question, which this figure answers on the
// reproduction's workload pool. Three metrics per (scheme, cluster count)
// series, averaged per workload category: absolute IPC, inter-cluster
// copies per retired instruction (the communication cost that grows with
// cluster count) and issue-queue stalls per retired instruction (the
// pressure relief that more clusters buy). Series are named "<scheme>/c<n>".
type ClusterScalingResult struct {
	// Clusters is the swept cluster-count axis (paper machine: 2).
	Clusters []int `json:"clusters"`
	// Schemes lists the resource-assignment schemes swept.
	Schemes []string `json:"schemes"`
	// IPC is absolute throughput (committed uops per cycle).
	IPC *CategorySeries `json:"ipc"`
	// Copies is inter-cluster link transfers per retired instruction.
	Copies *CategorySeries `json:"copies_per_retired"`
	// IQStalls is issue-queue stalls per retired instruction.
	IQStalls *CategorySeries `json:"iq_stalls_per_retired"`
}

// clusterSeriesName names one (scheme, cluster count) series.
func clusterSeriesName(scheme string, clusters int) string {
	return fmt.Sprintf("%s/c%d", scheme, clusters)
}

// ClusterScaling sweeps the given schemes over the given cluster counts on
// the §5.1 study machine (links and latencies stay at the template's) and
// aggregates the three metrics per workload category. It runs one campaign
// per scheme, so a row lists each scheme's cluster counts together.
func ClusterScaling(t campaign.Manifest, schemes []string, clusters []int) Figure {
	var names []string
	var campaigns []*campaign.Manifest
	for _, s := range schemes {
		for _, c := range clusters {
			names = append(names, clusterSeriesName(s, c))
		}
		m := iqStudy(t, []string{s}, 32)
		m.NumClusters = clusters
		campaigns = append(campaigns, m)
	}
	o := poolOf(t)
	reduce := func(r rows) *ClusterScalingResult {
		labels, means := categoryMeans(o, r, 3*len(names),
			each((*metrics.Stats).IPC, (*metrics.Stats).CopiesPerRetired, (*metrics.Stats).IQStallsPerRetired))
		return &ClusterScalingResult{
			Clusters: clusters,
			Schemes:  schemes,
			IPC:      seriesOf(labels, means, names, 3, 0),
			Copies:   seriesOf(labels, means, names, 3, 1),
			IQStalls: seriesOf(labels, means, names, 3, 2),
		}
	}
	return newFigure("clusterscale", campaigns, reduce, clusterScaleText)
}

// CSV renders the result as flat rows (one per category × scheme × cluster
// count), the machine-readable sibling of the three text tables.
func (r *ClusterScalingResult) CSV() (header []string, rows [][]string) {
	header = []string{"category", "scheme", "clusters", "ipc", "copies_per_retired", "iq_stalls_per_retired"}
	for _, cat := range r.IPC.Categories {
		for _, s := range r.Schemes {
			for _, c := range r.Clusters {
				name := clusterSeriesName(s, c)
				rows = append(rows, []string{
					cat, s, strconv.Itoa(c),
					fmt.Sprintf("%g", r.IPC.Values[name][cat]),
					fmt.Sprintf("%g", r.Copies.Values[name][cat]),
					fmt.Sprintf("%g", r.IQStalls.Values[name][cat]),
				})
			}
		}
	}
	return header, rows
}
