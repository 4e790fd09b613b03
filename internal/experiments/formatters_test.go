package experiments_test

import (
	"fmt"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
)

// refLabel is campaign.Item.Label as it was written with fmt.Sprintf;
// labels are diff keys across campaigns, so the appended form must match
// it byte for byte.
func refLabel(it campaign.Item) string {
	l := fmt.Sprintf("%s|%s|iq%d|rf%d|rob%d|len%d|r%d|st%d",
		it.Base, it.Spec.Scheme, it.Spec.IQSize, it.Spec.RegsPerClust,
		it.Spec.ROBPerThread, it.TraceLen, it.Rep, it.Spec.SingleThread)
	s := it.Spec
	if s.NumClusters != 2 || s.Links != 2 || s.LinkLatency != 1 || s.MemLatency != 60 {
		l += fmt.Sprintf("|c%d|lk%d|ll%d|ml%d", s.NumClusters, s.Links, s.LinkLatency, s.MemLatency)
	}
	return l
}

// refSessionKey is the runner's session key as it was written with
// fmt.Sprintf.
func refSessionKey(s experiments.Spec) string {
	return fmt.Sprintf("%s@%x|%s|iq%d|rf%d|rob%d|st%d|c%d|lk%d|ll%d|ml%d",
		s.Workload.Name, experiments.WorkloadDigest(s.Workload), s.Scheme,
		s.IQSize, s.RegsPerClust, s.ROBPerThread, s.SingleThread,
		s.NumClusters, s.Links, s.LinkLatency, s.MemLatency)
}

// TestFormattersMatchSprintf: Item.Label, the plan's rendered labels and
// the runner's session key, all built with appends, equal their fmt.Sprintf
// references for every item of manifests with single-thread baselines,
// repetitions, swept machine shapes and composed schemes; and Expand sizes
// its result once.
func TestFormattersMatchSprintf(t *testing.T) {
	manifests := map[string]string{
		"baselines": `{"categories":["dh","isfs"],"max_per_category":2,"schemes":["icount","cdprf"],
			"single_thread_baselines":true,"repetitions":3,"iq_sizes":[16,64],"regs_per_cluster":[0,48]}`,
		"shapes": `{"workloads":["ispec00.mix.2.1"],"schemes":["flush+","sel=stall,iq=cssp,rf=cdprf:interval=8192"],
			"num_clusters":[2,4],"links":[1,2],"link_latency":[1,3],"mem_latency":[60,250],"rob_per_thread":[0,128],
			"trace_lens":[1000,20000]}`,
		"axes": `{"workloads":["dh.ilp.2.1"],"scheme_axes":{"selectors":["stall","icount"],"iq":["cssp","cspsp"],"params":{"cspsp.frac":[0.25,0.5]}},
			"single_thread_baselines":true,"repetitions":2,"num_clusters":[3]}`,
	}
	for name, src := range manifests {
		m, err := campaign.Parse([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		items, err := m.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(items) != cap(items) {
			t.Errorf("%s: Expand returned len %d, cap %d", name, len(items), cap(items))
		}
		plan, err := campaign.NewPlan(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, it := range items {
			if got, want := it.Label(), refLabel(it); got != want {
				t.Fatalf("%s: Label %q, want %q", name, got, want)
			}
			if got, want := plan.Labels[i], refLabel(it); got != want {
				t.Fatalf("%s: plan label %q, want %q", name, got, want)
			}
			if got, want := experiments.SessionKey(it.Spec), refSessionKey(it.Spec); got != want {
				t.Fatalf("%s: session key %q, want %q", name, got, want)
			}
		}
	}
}
