package campaign

import (
	"slices"

	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
)

// Plan is the placement half of a campaign, split from execution: the
// validated, deterministic item expansion of one or more manifests and the
// assembly of raw simulation outcomes into their ResultSet. Engine.RunPlan
// executes it whether its simulations run in-process or on the fleet, and
// every per-item decision (ordering, labeling, result shaping, fairness,
// tallies) lives here, not in where a simulation ran.
type Plan struct {
	// Name is the first manifest's name, which the ResultSet carries.
	Name string
	// Items is the full expansion in canonical order; ResultSet.Results
	// indexes match it one-to-one.
	Items []Item
	// Labels[i] is Items[i].Label(), rendered once: the item's result row
	// and the service's status view of it share the string.
	Labels []string
}

// NewPlan validates and expands ms (at least one) into one plan, tagging
// each item with its manifest's index. Items are workload-major, as the
// engine's trace memo needs: grouped by (trace length, workload) in order of
// first appearance, in manifest and then expansion order; Expand's already is.
func NewPlan(ms ...*Manifest) (*Plan, error) {
	items, err := ms[0].Expand()
	if err != nil {
		return nil, err
	}
	for c, m := range ms[1:] {
		more, err := m.Expand()
		if err != nil {
			return nil, err
		}
		for _, it := range more {
			it.Campaign = c + 1
			items = append(items, it)
		}
	}
	if len(ms) > 1 {
		type group struct {
			tl int
			w  string
		}
		rank := map[group]int{}
		for _, it := range items {
			if g := (group{it.TraceLen, it.Spec.Workload.Name}); rank[g] == 0 {
				rank[g] = len(rank) + 1
			}
		}
		slices.SortStableFunc(items, func(a, b Item) int {
			return rank[group{a.TraceLen, a.Spec.Workload.Name}] - rank[group{b.TraceLen, b.Spec.Workload.Name}]
		})
	}
	labels := make([]string, len(items))
	for i := range items {
		labels[i] = items[i].Label()
	}
	return &Plan{Name: ms[0].Name, Items: items, Labels: labels}, nil
}

// NewResultSet returns the empty result set the plan's execution fills:
// one slot per item, in expansion order.
func (p *Plan) NewResultSet(version string) *ResultSet {
	return &ResultSet{
		Campaign: p.Name,
		Version:  version,
		Total:    len(p.Items),
		Results:  make([]Result, len(p.Items)),
	}
}

// Result assembles item i's result row from a raw simulation outcome:
// the content-addressed key, the stats (nil on failure), whether the
// executor actually simulated (false = store or singleflight hit) and the
// terminal error. The row is a pure function of these inputs plus the
// item's coordinates, which is what makes local and fleet runs of one
// manifest bit-for-bit comparable.
func (p *Plan) Result(i int, key string, st *metrics.Stats, executed bool, err error) Result {
	it := p.Items[i]
	res := Result{
		Label:        p.Labels[i],
		Workload:     it.Base,
		Scheme:       it.Spec.Scheme,
		SchemeSpec:   schemeSpecEcho(it.Spec.Scheme),
		IQSize:       it.Spec.IQSize,
		RegsPerClust: it.Spec.RegsPerClust,
		ROBPerThread: it.Spec.ROBPerThread,
		TraceLen:     it.TraceLen,
		Rep:          it.Rep,
		SingleThread: it.Spec.SingleThread,
		NumClusters:  it.Spec.NumClusters,
		Links:        it.Spec.Links,
		LinkLatency:  it.Spec.LinkLatency,
		MemLatency:   it.Spec.MemLatency,
		Key:          key,
	}
	switch {
	case err != nil:
		res.Error = err.Error()
	case st != nil:
		res.Cached = !executed
		res.IPC = st.IPC()
		res.CopiesPerRet = st.CopiesPerRetired()
		res.IQStallsRet = st.IQStallsPerRetired()
		if it.Spec.SingleThread < 0 {
			for t := range it.Spec.Workload.Threads {
				res.ThreadIPC = append(res.ThreadIPC, st.ThreadIPC(t))
			}
		}
	default:
		res.Error = "simulation failed"
	}
	return res
}

// Finalize completes a fully-populated result set: the §4 fairness pass
// (for manifests that requested single-thread baselines) and the
// executed / store-hit / failed tallies. Call it exactly once, after every
// Results slot has been filled.
func (p *Plan) Finalize(rs *ResultSet) {
	p.fillFairness(rs)
	rs.Executed, rs.StoreHits, rs.Failed = 0, 0, 0
	for i := range rs.Results {
		switch {
		case rs.Results[i].Error != "":
			rs.Failed++
		case rs.Results[i].Cached:
			rs.StoreHits++
		default:
			rs.Executed++
		}
	}
}

// fillFairness computes the §4 fairness metric for every SMT result whose
// Icount baselines all completed in its campaign: the items labelled as it
// is but for scheme icount and the thread (labels carry every axis).
func (p *Plan) fillFairness(rs *ResultSet) {
	type point struct {
		campaign int
		label    string
	}
	single := map[point]float64{}
	for i, it := range p.Items {
		if it.Spec.SingleThread >= 0 && rs.Results[i].Error == "" {
			single[point{it.Campaign, p.Labels[i]}] = rs.Results[i].IPC
		}
	}
	for i, it := range p.Items {
		n := len(it.Spec.Workload.Threads)
		if len(single) == 0 || it.Spec.SingleThread >= 0 || rs.Results[i].Error != "" || len(rs.Results[i].ThreadIPC) != n {
			continue
		}
		singles := make([]float64, 0, n)
		for t := 0; t < n; t++ {
			base := it
			base.Spec.Scheme, base.Spec.SingleThread = "icount", t
			if ipc, ok := single[point{it.Campaign, base.Label()}]; ok {
				singles = append(singles, ipc)
			}
		}
		if len(singles) == n {
			rs.Results[i].Fairness = metrics.Fairness(singles, rs.Results[i].ThreadIPC)
		}
	}
}

// schemeSpecEcho renders the full component composition of a canonical
// scheme reference for result rows ("" when unparseable — the item's error
// field carries the diagnosis).
func schemeSpecEcho(scheme string) string {
	sp, err := policy.ParseSpec(scheme)
	if err != nil {
		return ""
	}
	return sp.Format()
}
