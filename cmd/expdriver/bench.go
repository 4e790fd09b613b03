package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"clustersmt/internal/bench"
	"clustersmt/internal/report"
)

// runBench implements `expdriver bench`: run the continuous-benchmark suite
// and emit the schema'd report (BENCH_<n>.json), or with the `diff`
// sub-subcommand compare two saved reports and gate on regressions.
func runBench(args []string) int {
	if len(args) > 0 && args[0] == "diff" {
		return runBenchDiff(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		quick     = fs.Bool("quick", false, "reduced suite: short targets, single repetition (CI smoke mode)")
		out       = fs.String("out", "", "write the JSON report to this file (default: stdout unless -text)")
		text      = fs.Bool("text", false, "print benchstat-friendly benchmark lines instead of JSON on stdout")
		benchtime = fs.Duration("benchtime", 0, "per-repetition wall-clock target (default 3s, 400ms with -quick)")
		reps      = fs.Int("reps", 0, "repetitions per benchmark, best kept (default 3, 1 with -quick)")
		run       = fs.String("run", "", "regexp selecting benchmark names (default: full suite)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: expdriver bench [-quick] [-out BENCH_N.json] [-text] [-benchtime 3s] [-reps 3] [-run regexp]
       expdriver bench diff [-tol 0.05] [-time-tol 0.5] old.json new.json`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The suite runs through testing.Benchmark, whose per-run target is
	// testing's own -test.benchtime flag.
	if *benchtime == 0 {
		*benchtime = 3 * time.Second
		if *quick {
			*benchtime = 400 * time.Millisecond
		}
	}
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "bench: -benchtime: %v\n", err)
		return 2
	}
	o := bench.Options{
		Quick: *quick,
		Reps:  *reps,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}
	if *run != "" {
		re, err := regexp.Compile(*run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -run: %v\n", err)
			return 2
		}
		o.Filter = re
	}
	r, err := bench.Run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *text {
		fmt.Print(r.FormatText())
	}
	if *out != "" {
		if err := report.WriteJSONFile(*out, r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	} else if !*text {
		if err := report.WriteJSON(os.Stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runBenchDiff implements `expdriver bench diff`. Deterministic metrics
// (allocs/op, simulated cycles, steady-state allocation count) gate at
// -tol; wall-clock metrics (ns/op, cycles/s) gate at the looser -time-tol,
// or are skipped entirely with -time-tol 0 for cross-machine comparisons.
func runBenchDiff(args []string) int {
	fs := flag.NewFlagSet("bench diff", flag.ExitOnError)
	var (
		tol     = fs.Float64("tol", 0.05, "relative tolerance for deterministic metrics")
		timeTol = fs.Float64("time-tol", 0.5, "relative tolerance for wall-clock metrics (0 = skip them)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expdriver bench diff [-tol 0.05] [-time-tol 0.5] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	old, err := bench.LoadReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench diff: %v\n", err)
		return 1
	}
	cur, err := bench.LoadReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench diff: %v\n", err)
		return 1
	}
	res, err := bench.Diff(old, cur, *tol, *timeTol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench diff: %v\n", err)
		return 1
	}
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "note: %s\n", n)
	}
	var rows [][]string
	for _, d := range res.Deltas {
		status := "info"
		switch {
		case d.Regression:
			status = "FAIL"
		case d.Gated:
			status = "ok"
		}
		rows = append(rows, []string{
			d.Bench, d.Metric, report.F(d.Old), report.F(d.New), fmtRel(d.Rel), status,
		})
	}
	fmt.Println(report.Table(
		fmt.Sprintf("bench diff: %s -> %s (tol %.0f%%, time-tol %.0f%%)",
			fs.Arg(0), fs.Arg(1), *tol*100, *timeTol*100),
		[]string{"benchmark", "metric", "old", "new", "delta", "status"}, rows))
	if regs := res.Regressions(); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "bench diff: %d metric(s) regressed\n", len(regs))
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench diff: no regressions")
	return 0
}

func fmtRel(rel float64) string {
	switch {
	case math.IsInf(rel, 1):
		return "+inf"
	case math.IsInf(rel, -1):
		return "-inf"
	default:
		return fmt.Sprintf("%+.1f%%", rel*100)
	}
}
