package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/core"
	"clustersmt/internal/report/html"
)

// runReport implements `expdriver report`: run a campaign manifest with
// time-series sampling enabled and render the ResultSet as a single
// self-contained HTML file (internal/report/html). By default the run is
// memory-only — no -store — so every item actually executes and carries a
// time series; point -store at a result store to reuse prior runs instead
// (store hits then have summary rows but no sparkline).
func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("o", "report.html", "output HTML file")
	storeDir := fs.String("store", "", "campaign result store directory (default: none, so every item executes and is sampled)")
	quick := fs.Bool("quick", false, "cap trace lengths at 8000 uops and sample every 1024 cycles (fast smoke render, e.g. in CI)")
	sampleInterval := fs.Int64("sample-interval", 0, "time-series window in cycles (0 = default 8192, rounded up to a power of two)")
	strict := fs.Bool("strict", false, "exit non-zero if any report section is empty")
	verbose := fs.Bool("v", false, "log every simulation")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expdriver report [-o report.html] [-store DIR] [-quick] [-strict] manifest.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	m, err := campaign.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	interval := *sampleInterval
	if *quick {
		for i, tl := range m.TraceLens {
			if tl > 8000 {
				m.TraceLens[i] = 8000
			}
		}
		if interval == 0 {
			interval = 1024
		}
	}
	if interval == 0 {
		interval = core.DefaultSampleInterval
	}

	eng := campaign.Engine{Resume: true, SampleInterval: interval}
	if *verbose {
		eng.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		eng.Store = st
	}

	start := time.Now()
	rs, err := eng.RunCtx(context.Background(), m, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	doc := html.Build(rs)
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	renderErr := doc.Render(f)
	if err := f.Close(); renderErr == nil {
		renderErr = err
	}
	if renderErr != nil {
		fmt.Fprintln(os.Stderr, renderErr)
		return 1
	}
	fmt.Fprintf(os.Stderr, "report %s: %d items — %d executed, %d store hits, %d failed (%v) -> %s\n",
		rs.Campaign, rs.Total, rs.Executed, rs.StoreHits, rs.Failed, time.Since(start).Round(time.Millisecond), *out)

	if empty := doc.EmptySections(); len(empty) > 0 {
		fmt.Fprintf(os.Stderr, "report: empty sections: %s\n", strings.Join(empty, ", "))
		if *strict {
			return 1
		}
	}
	if rs.Failed > 0 {
		fmt.Fprintln(os.Stderr, rs.Err())
		return 1
	}
	return 0
}
