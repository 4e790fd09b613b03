package experiments

import (
	"fmt"
	"strconv"

	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
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

// clusterScaleSpec returns the §5.1 study spec (32-entry IQs, unbounded
// RF/ROB) on an n-cluster machine. Links and latencies stay at Table 1.
func clusterScaleSpec(w workload.Workload, scheme string, clusters int) Spec {
	return Spec{Workload: w, Scheme: scheme, IQSize: 32,
		RegsPerClust: unbounded, ROBPerThread: unbounded, SingleThread: -1,
		NumClusters: clusters}
}

// clusterSeriesName names one (scheme, cluster count) series.
func clusterSeriesName(scheme string, clusters int) string {
	return fmt.Sprintf("%s/c%d", scheme, clusters)
}

// ClusterScaling runs the cluster-count sweep for the given schemes and
// cluster counts and aggregates the three metrics per workload category.
func ClusterScaling(r *Runner, o Options, schemes []string, clusters []int) (*ClusterScalingResult, error) {
	var names []string
	for _, s := range schemes {
		for _, c := range clusters {
			names = append(names, clusterSeriesName(s, c))
		}
	}
	row := func(w workload.Workload) []Spec {
		var specs []Spec
		for _, s := range schemes {
			for _, c := range clusters {
				specs = append(specs, clusterScaleSpec(w, s, c))
			}
		}
		return specs
	}
	labels, means, err := categoryMeans(r, o, 3*len(names), row,
		each((*metrics.Stats).IPC, (*metrics.Stats).CopiesPerRetired, (*metrics.Stats).IQStallsPerRetired))
	if err != nil {
		return nil, err
	}
	return &ClusterScalingResult{
		Clusters: clusters,
		Schemes:  schemes,
		IPC:      seriesOf(labels, means, names, 3, 0),
		Copies:   seriesOf(labels, means, names, 3, 1),
		IQStalls: seriesOf(labels, means, names, 3, 2),
	}, nil
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

// ClusterScaleSchemes is the default scheme list of the cluster-scaling
// figure: the cluster-blind Icount baseline plus the paper's two headline
// cluster-aware schemes (static IQ partition, dynamic IQ+RF partition).
func ClusterScaleSchemes() []string { return []string{"icount", "cssp", "cdprf"} }

// ClusterScaleCounts is the full validated cluster-count axis.
func ClusterScaleCounts() []int { return []int{1, 2, 3, 4} }
