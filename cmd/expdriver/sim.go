package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"

	"clustersmt/internal/campaign"
	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/policy"
	"clustersmt/internal/workload"
)

// axisFlag is an integer flag that sets the same quantity as a manifest
// axis, and is therefore held to that axis's bounds.
type axisFlag struct {
	name, axis string
	v          int
	// zeroDefault marks a flag whose 0 selects the Table 1 value.
	zeroDefault bool
}

// checkAxisFlags rejects the first flag whose value lies outside its
// manifest axis's bounds.
func checkAxisFlags(flags ...axisFlag) error {
	for _, f := range flags {
		if f.zeroDefault && f.v == 0 {
			continue
		}
		if err := campaign.CheckAxisValue(f.axis, f.v); err != nil {
			return fmt.Errorf("-%s: %w", f.name, err)
		}
	}
	return nil
}

// runSim implements `expdriver sim`: one workload under one scheme on the
// Table 1 machine resized by the flags, built by experiments.Programs and
// experiments.Machine like every campaign item, with the run's statistics
// printed as a report. Invalid flags exit 2; a run that hits its cycle
// bound exits 1.
func runSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName   = fs.String("workload", "ispec00.mix.2.1", "workload name from the Table 2 pool (see `expdriver workloads`)")
		scheme   = fs.String("scheme", "cdprf", "resource assignment scheme: a registered name or a composed spec (sel=...,iq=...,rf=...)")
		iq       = fs.Int("iq", 32, "issue-queue entries per cluster (32 or 64 in the paper)")
		regs     = fs.Int("regs", 64, "physical registers per kind per cluster (0 = unbounded)")
		rob      = fs.Int("rob", 128, "ROB entries per thread (0 = unbounded)")
		traceLen = fs.Int("len", 100000, "trace length per thread (uops); a fifth of it warms the machine")
		single   = fs.Int("single", -1, "run only this thread alone (-1 = full SMT workload)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: expdriver sim [flags]\nsimulates one workload under one scheme and prints the run statistics")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "expdriver sim:", err)
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	w, err := workload.Find(*wlName)
	if err != nil {
		return usage(err)
	}
	if _, err := policy.CanonicalScheme(*scheme); err != nil {
		return usage(err)
	}
	if err := checkAxisFlags(
		axisFlag{name: "iq", axis: "iq_sizes", v: *iq},
		axisFlag{name: "regs", axis: "regs_per_cluster", v: *regs},
		axisFlag{name: "rob", axis: "rob_per_thread", v: *rob},
		axisFlag{name: "len", axis: "trace_lens", v: *traceLen},
	); err != nil {
		return usage(err)
	}
	if *single < -1 || *single >= len(w.Threads) {
		return usage(fmt.Errorf("-single %d: %s has threads 0-%d (-1 runs them all)", *single, w.Name, len(w.Threads)-1))
	}

	s := experiments.Spec{
		Workload:     w,
		Scheme:       *scheme,
		IQSize:       *iq,
		RegsPerClust: *regs,
		ROBPerThread: *rob,
		SingleThread: *single,
	}
	progs := experiments.Programs(s, *traceLen)
	p, err := core.NewScheme(experiments.Machine(s, *traceLen), s.Scheme, progs)
	if err != nil {
		return usage(err)
	}
	st, err := experiments.Simulate(context.Background(), p)
	if err != nil {
		fmt.Fprintln(stderr, "expdriver sim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload   %s  scheme %s  iq %d  regs %d  rob %d\n", w.Name, *scheme, *iq, *regs, *rob)
	fmt.Fprintf(stdout, "cycles     %d\n", st.Cycles)
	fmt.Fprintf(stdout, "ipc        %.4f\n", st.IPC())
	for t := range progs {
		fmt.Fprintf(stdout, "thread %d   ipc %.4f  committed %d  fetched %d\n",
			t, st.ThreadIPC(t), st.Committed[t], st.Fetched[t])
	}
	fmt.Fprintf(stdout, "copies/ret %.4f   (transfers %d, generated %d, committed %d)\n",
		st.CopiesPerRetired(), st.CopyTransfers, st.CopiesGenerated, st.CommittedCopies)
	fmt.Fprintf(stdout, "iqstall/ret %.4f  (events %d, blocked cycles %d)\n",
		st.IQStallsPerRetired(), st.IQStalls, st.IQBlocked)
	fmt.Fprintf(stdout, "stalls     rf %d  mob %d  rob %d\n", st.RFStalls, st.MOBStalls, st.ROBStalls)
	fmt.Fprintf(stdout, "branches   lookups %d  mispredicts %d  flushes %d  squashed %d\n",
		st.BranchLookups, st.Mispredicts, st.Flushes, st.Squashed)
	fmt.Fprintf(stdout, "memory     l2miss(loads) %d  store-forwards %d\n", st.L2Misses, st.StoreForwards)
	cs := p.Mem().Stats()
	fmt.Fprintf(stdout, "caches     l1 %d/%d miss  l2 %d/%d miss  tlb %d/%d miss  coalesced %d\n",
		cs.L1Misses, cs.L1Accesses, cs.L2Misses, cs.L2Accesses, cs.TLBMisses, cs.TLBAccesses, cs.Coalesced)
	return 0
}
