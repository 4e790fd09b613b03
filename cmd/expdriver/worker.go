package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"clustersmt/internal/campaign/fleet"
)

// runWorker implements `expdriver worker`: a fleet worker process that
// registers with a coordinator (`expdriver serve -fleet`), leases
// simulation tasks, simulates them in memory and reports the stats. The
// coordinator alone writes them to its store.
func runWorker(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coordinator := fs.String("coordinator", "http://localhost:8080", "coordinator base URL (expdriver serve -fleet)")
	name := fs.String("name", "", "worker label in the registry (default: hostname)")
	parallel := fs.Int("parallel", 0, "concurrent simulations on this worker (0 = NumCPU)")
	batch := fs.Int("batch", 0, "max items per lease request (0 = 2×parallel)")
	verbose := fs.Bool("v", false, "log worker lifecycle events")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: expdriver worker [-coordinator URL] [-name label] [-parallel N] [-batch N] [-v]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	cfg := fleet.WorkerConfig{
		Coordinator: *coordinator,
		Name:        *name,
		Parallel:    *parallel,
		BatchSize:   *batch,
	}
	if cfg.Name == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.Name = host
		}
	}
	if *verbose {
		cfg.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	w, err := fleet.NewWorker(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "expdriver worker: joining fleet at %s\n", *coordinator)
	w.Run(ctx) // returns only on signal
	fmt.Fprintln(os.Stderr, "expdriver worker: shutting down")
	return 0
}
