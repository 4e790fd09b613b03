package campaign_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"clustersmt/internal/campaign"
)

// TestNewPlanOneManifestIsExpand: a one-manifest plan lists exactly the
// manifest's expansion and labels, for every example campaign, and that
// expansion is workload-major: each (trace length, workload) group is
// contiguous.
func TestNewPlanOneManifestIsExpand(t *testing.T) {
	paths, err := filepath.Glob("../../examples/campaign/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("example campaigns: %v (%v)", paths, err)
	}
	for _, path := range paths {
		m, err := campaign.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		items, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := campaign.NewPlan(m)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]string, len(items))
		for i := range items {
			labels[i] = items[i].Label()
		}
		if !reflect.DeepEqual(plan.Items, items) || !reflect.DeepEqual(plan.Labels, labels) || plan.Name != m.Name {
			t.Errorf("%s: the plan is not the manifest's expansion", filepath.Base(path))
		}
		seen := map[group]bool{}
		for i, it := range items {
			g := groupOf(it)
			if seen[g] && g != groupOf(items[i-1]) {
				t.Errorf("%s: item %d (%s) returns to an earlier group", filepath.Base(path), i, labels[i])
			}
			seen[g] = true
		}
	}
}

// group is an item's (trace length, workload) group.
type group struct {
	tl int
	w  string
}

func groupOf(it campaign.Item) group { return group{it.TraceLen, it.Spec.Workload.Name} }

// TestNewPlanGroupsCampaigns: a plan of two manifests lists each (trace
// length, workload) group contiguously, groups in order of first
// appearance, and within a group the first campaign's items and then the
// second's, each in expansion order.
func TestNewPlanGroupsCampaigns(t *testing.T) {
	a := &campaign.Manifest{Name: "a", Workloads: []string{"ispec00.mix.2.1", "isfs.mix.2.1"},
		Schemes: []string{"icount", "cssp"}, TraceLens: []int{1000, 2000}}
	b := &campaign.Manifest{Name: "b", Workloads: []string{"server.mix.2.1", "isfs.mix.2.1"},
		Schemes: []string{"cdprf"}, IQSizes: []int{16, 32}, TraceLens: []int{2000}, SingleThreadBaselines: true}
	plan, err := campaign.NewPlan(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Name != "a" {
		t.Errorf("plan name %q, want the first manifest's", plan.Name)
	}
	var runs []group
	for i, it := range plan.Items {
		if i == 0 || groupOf(it) != groupOf(plan.Items[i-1]) {
			runs = append(runs, groupOf(it))
		}
		if plan.Labels[i] != it.Label() {
			t.Errorf("label %d is %q, want %q", i, plan.Labels[i], it.Label())
		}
	}
	want := []group{{1000, "ispec00.mix.2.1"}, {1000, "isfs.mix.2.1"},
		{2000, "ispec00.mix.2.1"}, {2000, "isfs.mix.2.1"}, {2000, "server.mix.2.1"}}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("groups in plan order %v, want %v", runs, want)
	}

	// Each group lists a's items of that group in expansion order, then b's.
	expected := map[group][]campaign.Item{}
	for c, m := range []*campaign.Manifest{a, b} {
		items, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range items {
			it.Campaign = c
			expected[groupOf(it)] = append(expected[groupOf(it)], it)
		}
	}
	got := map[group][]campaign.Item{}
	for _, it := range plan.Items {
		got[groupOf(it)] = append(got[groupOf(it)], it)
	}
	if !reflect.DeepEqual(got, expected) {
		t.Errorf("groups do not list campaign a's items and then b's in expansion order")
	}
}

// TestPlanBaselinesAnswerOwnCampaign: campaign a's single-thread baselines
// give a's SMT row its fairness, never b's rows at the same axis point,
// though b's Icount row is the same simulation as a's.
func TestPlanBaselinesAnswerOwnCampaign(t *testing.T) {
	m := func(name string, baselines bool, schemes ...string) *campaign.Manifest {
		return &campaign.Manifest{Name: name, Workloads: []string{"ispec00.mix.2.1"}, Schemes: schemes,
			IQSizes: []int{32}, TraceLens: []int{1000}, SingleThreadBaselines: baselines}
	}
	plan, err := campaign.NewPlan(m("a", true, "icount"), m("b", false, "icount", "cssp"))
	if err != nil {
		t.Fatal(err)
	}
	rs := (&campaign.Engine{Workers: 2}).RunPlan(context.Background(), plan, nil)
	if rs.Failed != 0 || rs.Total != 5 || rs.Executed != 4 || rs.StoreHits != 1 {
		t.Fatalf("%d executed, %d store hits, %d failed of %d; want 4, 1, 0 of 5", rs.Executed, rs.StoreHits, rs.Failed, rs.Total)
	}
	for i, r := range rs.Results {
		smtOfA := plan.Items[i].Campaign == 0 && r.SingleThread < 0
		if (r.Fairness != 0) != smtOfA {
			t.Errorf("%s of campaign %d: fairness %v", r.Label, plan.Items[i].Campaign, r.Fairness)
		}
	}
}
