package main

import (
	"fmt"
	"os"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/report"
)

type campaignOpts struct {
	manifest string
	storeDir string
	dryRun   bool
	resume   bool
	jsonOut  string
	csvOut   string
	verbose  bool
}

// runCampaign executes (or dry-runs) a manifest-defined sweep and renders
// the result table, summary tally, and optional JSON/CSV artifacts. An
// unreadable or invalid manifest is a usage error: exit 2.
func runCampaign(o campaignOpts) int {
	m, err := campaign.Load(o.manifest)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	items, err := m.Expand()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if o.dryRun {
		for _, it := range items {
			fmt.Println(it.Label())
		}
		fmt.Fprintf(os.Stderr, "campaign %s: %d simulations would run (dry run; nothing executed)\n", m.Name, len(items))
		return 0
	}

	eng := campaign.Engine{Resume: o.resume}
	if o.verbose {
		eng.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if o.storeDir != "" {
		st, err := store.Open(o.storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		eng.Store = st
	}

	start := time.Now()
	rs, err := eng.Run(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

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
