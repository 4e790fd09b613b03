package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/report"
)

// campaignOpts are the flags campaign and figure mode share.
type campaignOpts struct {
	manifest string
	storeDir string
	dryRun   bool
	resume   bool
	jsonOut  string
	csvOut   string
	verbose  bool
}

// newEngine returns the engine both modes run on: the disk store at
// o.storeDir (none when empty), resuming from it unless o.resume is false,
// and logging every simulation when o.verbose is set.
func newEngine(o campaignOpts) (*campaign.Engine, error) {
	eng := &campaign.Engine{Resume: o.resume}
	if o.verbose {
		eng.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir)
		if err != nil {
			return nil, err
		}
		eng.Store = st
	}
	return eng, nil
}

// dryRun prints the label of every distinct item of plan, in plan order,
// and how many there are, and runs nothing. An item that two of the plan's
// manifests share runs once, so it is listed once.
func dryRun(what string, plan *campaign.Plan) {
	seen := map[string]bool{}
	for _, l := range plan.Labels {
		if !seen[l] {
			seen[l] = true
			fmt.Println(l)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d simulations would run (dry run; nothing executed)\n", what, len(seen))
}

// runCampaign executes (or dry-runs) a manifest-defined sweep and renders
// the result table, summary tally, and optional JSON/CSV artifacts. An
// unreadable or invalid manifest is a usage error: exit 2.
func runCampaign(o campaignOpts) int {
	m, err := campaign.Load(o.manifest)
	var plan *campaign.Plan
	if err == nil {
		plan, err = campaign.NewPlan(m)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if o.dryRun {
		dryRun("campaign "+m.Name, plan)
		return 0
	}

	eng, err := newEngine(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	start := time.Now()
	rs := eng.RunPlan(context.Background(), plan, nil)

	fmt.Println(report.Table(fmt.Sprintf("Campaign %s (%s)", rs.Campaign, rs.Version),
		campaignHeader(m), campaignRows(m, rs)))
	fmt.Fprintf(os.Stderr, "campaign %s: %d specs — %d executed, %d store hits, %d failed (%v)\n",
		rs.Campaign, rs.Total, rs.Executed, rs.StoreHits, rs.Failed, time.Since(start).Round(time.Millisecond))

	if o.jsonOut != "" {
		if err := report.WriteJSONFile(o.jsonOut, rs); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	if o.csvOut != "" {
		if err := os.WriteFile(o.csvOut, []byte(report.CSV(campaign.CSVHeader(), rs.CSVRows())), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			return 1
		}
	}
	if rs.Failed > 0 {
		fmt.Fprintln(os.Stderr, rs.Err())
		return 1
	}
	return 0
}

func campaignHeader(m *campaign.Manifest) []string {
	h := []string{"spec", "ipc", "copies/ret", "iqstalls/ret"}
	if m.SingleThreadBaselines {
		h = append(h, "fairness")
	}
	return append(h, "source")
}

func campaignRows(m *campaign.Manifest, rs *campaign.ResultSet) [][]string {
	var rows [][]string
	for _, r := range rs.Results {
		source := "run"
		if r.Cached {
			source = "store"
		}
		if r.Error != "" {
			source = "ERROR"
		}
		row := []string{r.Label, report.F(r.IPC), report.F(r.CopiesPerRet), report.F(r.IQStallsRet)}
		if m.SingleThreadBaselines {
			f := ""
			if r.SingleThread < 0 && r.Fairness > 0 {
				f = report.F(r.Fairness)
			}
			row = append(row, f)
		}
		rows = append(rows, append(row, source))
	}
	return rows
}
