// Command expdriver regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index), runs declarative experiment
// campaigns, and serves campaigns as a long-running HTTP daemon. Each
// figure prints as a text table whose rows/series mirror the paper's plot;
// -json additionally emits the machine-readable form the CI
// figure-regression gate consumes.
//
// Usage:
//
//	expdriver -exp fig2                 # one figure
//	expdriver -exp all -quick           # everything on a reduced pool
//	expdriver -exp headline -len 100000 # the 17.6%/24% claim
//	expdriver -exp headline -quick -json headline.json
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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
	"clustersmt/internal/report"
	"clustersmt/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		sub, rest := os.Args[1], os.Args[2:]
		switch sub {
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
				fmt.Fprintf(os.Stderr, "expdriver: unknown subcommand %q (diff|bench|serve|worker|store|submit|status|cancel|report|schemes|components|workloads; flags select figure/campaign mode)\n", sub)
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
		storeDir   = flag.String("store", ".campaign", "campaign result store directory (empty disables persistence)")
		dryRun     = flag.Bool("dry-run", false, "with -manifest: print the expanded spec set and estimated simulation count, run nothing")
		resume     = flag.Bool("resume", true, "with -manifest: reuse results already in the store (=false re-executes and overwrites)")
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
		code := runCampaign(campaignOpts{
			manifest: *manifest,
			storeDir: *storeDir,
			dryRun:   *dryRun,
			resume:   *resume,
			jsonOut:  *jsonOut,
			csvOut:   *csvOut,
			verbose:  *verbose,
		})
		flushProfiles() // before the deferless exit
		os.Exit(code)
	}

	r := experiments.NewRunner(*traceLen)
	r.Shape = experiments.MachineShape{
		NumClusters: *clusters,
		Links:       *links,
		LinkLatency: *linkLat,
		MemLatency:  *memLat,
	}
	if *verbose {
		r.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	o := experiments.Options{}
	if *quick {
		o.MaxPerCategory = 3
	}
	if *cats != "" {
		o.Categories = strings.Split(*cats, ",")
		if err := workload.CheckCategories(o.Categories); err != nil {
			fmt.Fprintln(os.Stderr, "expdriver:", err)
			flushProfiles() // before the deferless exit
			os.Exit(2)
		}
	}

	if len(schemeFlags) > 0 && (*exp == "headline" || *exp == "future") {
		fmt.Fprintf(os.Stderr, "warning: -scheme is ignored by -exp %s (fixed scheme set)\n", *exp)
	}

	start := time.Now()
	emitted := map[string]any{}
	run := func(name string, fn func() (any, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		v, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			flushProfiles() // before the deferless exit
			os.Exit(1)
		}
		emitted[name] = v
	}

	run("fig2", func() (any, error) { return fig2(r, o, schemeFlags) })
	run("fig3", func() (any, error) { return figMetric(r, o, 3, schemeFlags) })
	run("fig4", func() (any, error) { return figMetric(r, o, 4, schemeFlags) })
	run("fig5", func() (any, error) { return fig5(r, o, schemeFlags) })
	run("fig6", func() (any, error) { return fig6(r, o, schemeFlags) })
	run("fig9", func() (any, error) { return fig9(r, o, schemeFlags) })
	run("fig10", func() (any, error) { return fig10(r, o, schemeFlags) })
	run("headline", func() (any, error) { return headline(r, o) })
	run("future", func() (any, error) { return future(r, o) })
	run("clusterscale", func() (any, error) {
		if *clusters != 0 {
			fmt.Fprintln(os.Stderr, "warning: -clusters is ignored by -exp clusterscale (the figure sweeps its own cluster axis)")
		}
		return clusterScale(r, o, schemeFlags, *csvOut)
	})
	if *jsonOut != "" {
		if err := report.WriteJSONFile(*jsonOut, emitted); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			flushProfiles() // before the deferless exit
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", time.Since(start).Round(time.Second))
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

// or returns the override list when -scheme was given, else def.
func (s schemeList) or(def []string) []string {
	if len(s) > 0 {
		return []string(s)
	}
	return def
}

func seriesTable(title string, cs *experiments.CategorySeries) {
	header := append([]string{"category"}, cs.Series...)
	var rows [][]string
	for _, cat := range cs.Categories {
		row := []string{cat}
		for _, s := range cs.Series {
			row = append(row, report.F(cs.Values[s][cat]))
		}
		rows = append(rows, row)
	}
	fmt.Println(report.Table(title, header, rows))
}

func fig2(r *experiments.Runner, o experiments.Options, sf schemeList) (any, error) {
	schemes := sf.or(policy.PaperIQSchemes())
	cs, err := experiments.Fig2(r, o, schemes, []int{32, 64})
	if err != nil {
		return nil, err
	}
	seriesTable("Figure 2: throughput speedup vs Icount@32 (RF/ROB unbounded)", cs)
	return cs, nil
}

func figMetric(r *experiments.Runner, o experiments.Options, fig int, sf schemeList) (any, error) {
	schemes := sf.or(policy.PaperIQSchemes())
	var cs *experiments.CategorySeries
	var err error
	var title string
	if fig == 3 {
		cs, err = experiments.Fig3(r, o, schemes)
		title = "Figure 3: inter-cluster copies per retired instruction (IQ=32)"
	} else {
		cs, err = experiments.Fig4(r, o, schemes)
		title = "Figure 4: issue-queue stalls per retired instruction (IQ=32)"
	}
	if err != nil {
		return nil, err
	}
	seriesTable(title, cs)
	return cs, nil
}

func fig5(r *experiments.Runner, o experiments.Options, sf schemeList) (any, error) {
	schemes := sf.or([]string{"icount", "cisp", "cssp", "pc"})
	res, err := experiments.Fig5(r, o, schemes)
	if err != nil {
		return nil, err
	}
	header := []string{"category", "scheme"}
	for k := 0; k < metrics.NumImbClasses; k++ {
		for kind := 0; kind < 2; kind++ {
			header = append(header, fmt.Sprintf("%d %s", kind, metrics.ImbClass(k)))
		}
	}
	var rows [][]string
	for _, cat := range res.Categories {
		for _, s := range schemes {
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
	fmt.Println(report.Table("Figure 5: workload imbalance (fraction of issuing cycles; kind 1 = other cluster had a free port)", header, rows))
	return res, nil
}

func fig6(r *experiments.Runner, o experiments.Options, sf schemeList) (any, error) {
	schemes := sf.or(policy.PaperRFSchemes())
	cs, err := experiments.Fig6(r, o, schemes, []int{64, 128})
	if err != nil {
		return nil, err
	}
	seriesTable("Figure 6: throughput speedup vs Icount@64regs (IQ=32, ROB=128)", cs)
	return cs, nil
}

func fig9(r *experiments.Runner, o experiments.Options, sf schemeList) (any, error) {
	schemes := sf.or([]string{"cssp", "cssprf", "cisprf", "cdprf"})
	res, err := experiments.Fig9(r, o, schemes)
	if err != nil {
		return nil, err
	}
	header := append([]string{"workload"}, schemes...)
	var rows [][]string
	for _, wl := range res.Workloads {
		row := []string{wl}
		for _, s := range schemes {
			row = append(row, report.F(res.Speedup[wl][s]))
		}
		rows = append(rows, row)
	}
	fmt.Println(report.Table("Figure 9: ISPEC-FSPEC speedups vs Icount (64 regs/cluster)", header, rows))
	return res, nil
}

func fig10(r *experiments.Runner, o experiments.Options, sf schemeList) (any, error) {
	schemes := sf.or([]string{"stall", "flush+", "cssp", "cdprf"})
	cs, err := experiments.Fig10(r, o, schemes)
	if err != nil {
		return nil, err
	}
	seriesTable("Figure 10: fairness relative to Icount (64 regs/cluster)", cs)
	return cs, nil
}

func headline(r *experiments.Runner, o experiments.Options) (any, error) {
	h, err := experiments.Headline(r, o)
	if err != nil {
		return nil, err
	}
	fmt.Println(report.Table("Headline (paper: CDPRF +17.6% throughput, +24% fairness, up to +40% per category)",
		[]string{"metric", "value"},
		[][]string{
			{"CSSP speedup vs Icount", report.Pct(h.CSSPSpeedup)},
			{"CDPRF speedup vs Icount", report.Pct(h.CDPRFSpeedup)},
			{"CDPRF fairness vs Icount", report.Pct(h.FairnessRatio)},
			{"best category", fmt.Sprintf("%s %s", h.BestCategory, report.Pct(h.BestCategorySpeedup))},
		}))
	return h, nil
}

func clusterScale(r *experiments.Runner, o experiments.Options, sf schemeList, csvOut string) (any, error) {
	schemes := sf.or(experiments.ClusterScaleSchemes())
	res, err := experiments.ClusterScaling(r, o, schemes, experiments.ClusterScaleCounts())
	if err != nil {
		return nil, err
	}
	seriesTable("Cluster scaling: IPC vs cluster count (IQ=32, RF/ROB unbounded)", res.IPC)
	seriesTable("Cluster scaling: copies per retired instruction", res.Copies)
	seriesTable("Cluster scaling: IQ stalls per retired instruction", res.IQStalls)
	if csvOut != "" {
		header, rows := res.CSV()
		if err := os.WriteFile(csvOut, []byte(report.CSV(header, rows)), 0o644); err != nil {
			return nil, fmt.Errorf("csv: %w", err)
		}
	}
	return res, nil
}

func future(r *experiments.Runner, o experiments.Options) (any, error) {
	out, err := experiments.FutureWork(r, o)
	if err != nil {
		return nil, err
	}
	var names []string
	for s := range out {
		names = append(names, s)
	}
	sort.Strings(names)
	var rows [][]string
	for _, s := range names {
		rows = append(rows, []string{s, report.Pct(out[s])})
	}
	fmt.Println(report.Table("Future work (§6): cluster-aware DCRA and hill-climbing vs CDPRF (speedup vs Icount)",
		[]string{"scheme", "speedup"}, rows))
	return out, nil
}
