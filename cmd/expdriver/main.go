// Command expdriver regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index), runs declarative experiment
// campaigns, and serves campaigns as a long-running HTTP daemon. Each
// figure runs as campaigns on the same engine and result store as
// -manifest, and prints as a text table whose rows/series mirror the
// paper's plot; -json additionally emits the machine-readable form the CI
// figure-regression gate consumes.
//
// Usage:
//
//	expdriver sim -workload ispec00.mix.2.1 -scheme cdprf -len 100000 # one simulation
//	expdriver sim -single 0                                           # thread 0 alone
//
//	expdriver -exp fig2                 # one figure
//	expdriver -exp all -quick           # everything on a reduced pool
//	expdriver -exp headline -len 100000 # the 17.6%/24% claim
//	expdriver -exp headline -quick -json headline.json
//	expdriver -exp headline -quick -dry-run  # the items it would simulate
//
//	expdriver -manifest examples/campaign/iqsweep.json   # declarative sweep
//	expdriver -manifest m.json -dry-run                  # expanded spec set only
//	expdriver -manifest m.json -store .campaign          # persistent result store
//
//	expdriver diff -tol 0.02 old.json new.json           # compare result JSONs
//
//	expdriver bench -quick -out BENCH_6.json             # continuous-benchmark suite
//	expdriver bench -text                                # benchstat-friendly lines
//	expdriver bench diff -tol 0.05 old.json new.json     # gate on regressions
//
//	expdriver serve -addr :8080 -store .campaign         # campaign service daemon
//	expdriver serve -fleet -addr :8080                   # fleet coordinator mode
//	expdriver worker -coordinator http://host:8080       # fleet worker process
//	expdriver submit -wait examples/campaign/iqsweep.json # POST a manifest to it
//	expdriver status [job-id]                            # job list / per-item progress
//	expdriver cancel job-id                              # stop a running campaign
//
//	expdriver store gc -store .campaign -max-age 720h    # compact the result store
//
//	expdriver report -quick -o out.html examples/campaign/iqsweep.json # static HTML report with time-series sparklines
//
//	expdriver schemes [-json]                            # scheme registry listing
//	expdriver components [-json]                         # selector/IQ/RF component registries
//	expdriver workloads -category dh                     # Table 2 workload pool
//
// Scheme-parameterized figures accept composed scheme specs:
//
//	expdriver -exp fig3 -scheme 'sel=stall,iq=cssp,rf=cdprf' -quick
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/figures"
	"clustersmt/internal/policy"
	"clustersmt/internal/report"
)

func main() {
	if len(os.Args) > 1 {
		sub, rest := os.Args[1], os.Args[2:]
		switch sub {
		case "sim":
			os.Exit(runSim(rest, os.Stdout, os.Stderr))
		case "diff":
			os.Exit(runDiff(rest))
		case "bench":
			os.Exit(runBench(rest))
		case "serve":
			os.Exit(runServe(rest))
		case "worker":
			os.Exit(runWorker(rest))
		case "store":
			os.Exit(runStoreCmd(rest))
		case "submit":
			os.Exit(runSubmit(rest))
		case "status":
			os.Exit(runStatus(rest))
		case "cancel":
			os.Exit(runCancel(rest))
		case "report":
			os.Exit(runReport(rest))
		case "schemes":
			os.Exit(runSchemes(rest))
		case "components":
			os.Exit(runComponents(rest))
		case "workloads":
			os.Exit(runWorkloads(rest))
		default:
			// Only flags fall through to figure/campaign mode; a mistyped
			// subcommand must not silently start the full experiment suite.
			if !strings.HasPrefix(sub, "-") {
				fmt.Fprintf(os.Stderr, "expdriver: unknown subcommand %q (sim|diff|bench|serve|worker|store|submit|status|cancel|report|schemes|components|workloads; flags select figure/campaign mode)\n", sub)
				os.Exit(2)
			}
		}
	}
	var schemeFlags schemeList
	flag.Var(&schemeFlags, "scheme", "override the scheme list of scheme-parameterized figures; a named scheme or a full spec (sel=...,iq=...,rf=...); repeatable")
	var (
		exp        = flag.String("exp", "all", "experiment: fig2|fig3|fig4|fig5|fig6|fig9|fig10|headline|future|clusterscale|all")
		traceLen   = flag.Int("len", 60000, "trace length per thread (uops)")
		quick      = flag.Bool("quick", false, "reduced pool (3 type-balanced workloads per category)")
		cats       = flag.String("categories", "", "comma-separated category subset (default: all)")
		clusters   = flag.Int("clusters", 0, "back-end cluster count for figure-mode runs (0 = Table 1 default, 2)")
		links      = flag.Int("links", 0, "inter-cluster links for figure-mode runs (0 = Table 1 default, 2)")
		linkLat    = flag.Int("link-latency", 0, "inter-cluster link latency in cycles (0 = Table 1 default, 1)")
		memLat     = flag.Int("mem-latency", 0, "main-memory latency in cycles (0 = Table 1 default, 60)")
		verbose    = flag.Bool("v", false, "log every simulation")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit (go tool pprof; pairs with GODEBUG=memprofilerate=1 for exact counts)")
		manifest   = flag.String("manifest", "", "campaign manifest JSON: run a declarative sweep instead of the figure set")
		storeDir   = flag.String("store", ".campaign", "result store directory (empty disables persistence)")
		dryRun     = flag.Bool("dry-run", false, "print the expanded spec set and estimated simulation count, run nothing")
		resume     = flag.Bool("resume", true, "reuse results already in the store (=false re-executes and overwrites)")
		jsonOut    = flag.String("json", "", "write machine-readable results (figure map or campaign result set) to this file")
		csvOut     = flag.String("csv", "", "write result rows as CSV to this file (campaign results with -manifest, flat figure rows with -exp clusterscale)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	// flushProfiles finalizes both profiles; it must run before every exit
	// path (os.Exit skips defers).
	flushProfiles := func() {
		pprof.StopCPUProfile()
		writeMemProfile(*memprofile)
	}
	defer flushProfiles()

	opts := campaignOpts{
		manifest: *manifest,
		storeDir: *storeDir,
		dryRun:   *dryRun,
		resume:   *resume,
		jsonOut:  *jsonOut,
		csvOut:   *csvOut,
		verbose:  *verbose,
	}
	if *manifest != "" {
		// The figure-mode selectors do not apply to campaigns; warn rather
		// than silently ignore an explicitly set flag.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "exp", "len", "quick", "categories", "scheme",
				"clusters", "links", "link-latency", "mem-latency":
				fmt.Fprintf(os.Stderr, "warning: -%s is ignored with -manifest (the manifest defines the sweep)\n", f.Name)
			}
		})
		code := runCampaign(opts)
		flushProfiles() // before the deferless exit
		os.Exit(code)
	}

	// usageErr reports a bad figure-mode flag and exits 2 before anything
	// runs.
	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "expdriver:", err)
		flushProfiles() // before the deferless exit
		os.Exit(2)
	}
	// The figure flags fill the template every figure's campaigns start
	// from, so planning the campaigns validates the flags.
	tmpl := campaign.Manifest{
		TraceLens:   []int{*traceLen},
		NumClusters: shapeAxis(*clusters),
		Links:       shapeAxis(*links),
		LinkLatency: shapeAxis(*linkLat),
		MemLatency:  shapeAxis(*memLat),
	}
	if *quick {
		tmpl.MaxPerCategory = 3
	}
	if *cats != "" {
		tmpl.Categories = strings.Split(*cats, ",")
	}
	names := []string{"all"}
	var figs []figures.Figure
	for _, f := range figures.All(tmpl, schemeFlags) {
		names = append(names, f.Name)
		if *exp == "all" || *exp == f.Name {
			figs = append(figs, f)
		}
	}
	if len(figs) == 0 {
		usageErr(fmt.Errorf("unknown experiment %q (%s)", *exp, strings.Join(names, "|")))
	}
	plan, err := figures.Plan(figs...)
	if err != nil {
		usageErr(flagError(err))
	}

	if len(schemeFlags) > 0 && (*exp == "headline" || *exp == "future") {
		fmt.Fprintf(os.Stderr, "warning: -scheme is ignored by -exp %s (fixed scheme set)\n", *exp)
	}
	if *clusters != 0 && (*exp == "all" || *exp == "clusterscale") {
		fmt.Fprintln(os.Stderr, "warning: -clusters is ignored by -exp clusterscale (the figure sweeps its own cluster axis)")
	}
	code := runFigures(figs, plan, opts)
	flushProfiles() // before the deferless exit
	os.Exit(code)
}

// shapeAxis is the manifest axis a machine-shape flag sets: omitted (the
// Table 1 default) for 0, else the one value.
func shapeAxis(v int) []int {
	if v == 0 {
		return nil
	}
	return []int{v}
}

// figureFlags names the figure-mode flag that sets each manifest axis.
var figureFlags = map[string]string{
	"trace_lens":   "len",
	"num_clusters": "clusters",
	"links":        "links",
	"link_latency": "link-latency",
	"mem_latency":  "mem-latency",
}

// flagError names the flag behind an axis error in a figure's campaign.
func flagError(err error) error {
	var ae *campaign.AxisError
	if errors.As(err, &ae) && figureFlags[ae.Axis] != "" {
		return fmt.Errorf("-%s: %w", figureFlags[ae.Axis], ae)
	}
	return err
}

// runFigures runs (or dry-runs) figs as their one plan on one engine,
// prints each figure's tables, and writes the -json figure map and the
// cluster-scaling -csv rows.
func runFigures(figs []figures.Figure, plan *campaign.Plan, o campaignOpts) int {
	if o.dryRun {
		dryRun("figures", plan)
		return 0
	}
	eng, err := newEngine(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	start := time.Now()
	res, rs, err := figures.Run(context.Background(), eng, plan, figs...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		return 1
	}
	emitted := map[string]any{}
	for i, f := range figs {
		fmt.Print(res[i].Text)
		emitted[f.Name] = res[i].Value
		if cs, ok := res[i].Value.(*figures.ClusterScalingResult); ok && o.csvOut != "" {
			header, rows := cs.CSV()
			if err := os.WriteFile(o.csvOut, []byte(report.CSV(header, rows)), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				return 1
			}
		}
	}
	if o.jsonOut != "" {
		if err := report.WriteJSONFile(o.jsonOut, emitted); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "figures: %d items — %d executed, %d store hits (%v)\n",
		rs.Total, rs.Executed, rs.StoreHits, time.Since(start).Round(time.Second))
	return 0
}

// writeMemProfile emits the allocation profile ("allocs": every allocation
// since process start, with in-use and cumulative views) to path, after a
// final GC so the in-use numbers reflect live memory rather than floating
// garbage. No-op when path is empty.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
	}
}

// schemeList collects repeated -scheme flags. Each value is validated and
// canonicalized at parse time, so `-scheme sel=icount,iq=cssp,rf=cdprf`
// and `-scheme cdprf` produce identical series (and share cached runs).
type schemeList []string

// String implements flag.Value.
func (s *schemeList) String() string { return strings.Join(*s, " ") }

// Set implements flag.Value.
func (s *schemeList) Set(v string) error {
	canon, err := policy.CanonicalScheme(v)
	if err != nil {
		return err
	}
	*s = append(*s, canon)
	return nil
}
