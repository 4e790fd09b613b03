// Dynamicrf: watch CDPRF's per-thread register thresholds adapt on an
// ISPEC-FSPEC workload, whose two threads have nearly disjoint register
// demands (integer-heavy vs FP-heavy) — the §5.2 scenario where static
// partitioning underutilizes the files and the dynamic scheme recovers.
//
// It is also the walkthrough of the Go API: experiments.Programs and
// experiments.Machine turn a spec into thread programs and a machine
// configuration, exactly as every campaign item is built; core.New
// assembles the machine around policy instances the caller keeps; and
// experiments.Simulate runs it, with a sampler observing it as it goes.
//
//	go run ./examples/dynamicrf
package main

import (
	"context"
	"fmt"
	"log"

	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/isa"
	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
	"clustersmt/internal/workload"
)

const traceLen = 120000

func main() {
	w, err := workload.Find("isfs.mix.2.1")
	if err != nil {
		log.Fatal(err)
	}
	// The Table 1 machine: 32-entry issue queues, 64+64 registers per
	// cluster, 128-entry per-thread ROBs.
	s := experiments.Spec{Workload: w, Scheme: "cdprf", IQSize: 32, RegsPerClust: 64, ROBPerThread: 128, SingleThread: -1}

	// Assemble the scheme by hand, rather than by name, so the CDPRF
	// instance stays in reach.
	rfCfg := policy.DefaultRFConfig(2)
	rfCfg.Interval = 8 * 1024
	cdprf := policy.NewCDPRF(rfCfg).(*policy.CDPRF)
	p, err := core.New(experiments.Machine(s, traceLen), policy.NewIcount(2), policy.NewCSSP(), cdprf, nil,
		experiments.Programs(s, traceLen))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("threads: 0=%s (int-heavy)  1=%s (fp-heavy)\n", w.Threads[0].Name, w.Threads[1].Name)
	fmt.Printf("%10s %22s %22s\n", "", "int thresholds", "fp thresholds")
	fmt.Printf("%10s %10s %10s %10s %10s\n", "cycle", "t0", "t1", "t0", "t1")
	// The sampler runs between cycles, at its finest window (1024 cycles);
	// print the thresholds at every CDPRF interval boundary.
	interval := int64(rfCfg.Interval)
	p.SetSampler(1024, func(smp metrics.Sample) {
		if smp.Cycle%interval != 0 {
			return
		}
		fmt.Printf("%10d %10d %10d %10d %10d\n", smp.Cycle,
			cdprf.Threshold(0, isa.IntReg), cdprf.Threshold(1, isa.IntReg),
			cdprf.Threshold(0, isa.FpReg), cdprf.Threshold(1, isa.FpReg))
	})
	st, err := experiments.Simulate(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal: ipc=%.3f t0=%.3f t1=%.3f rf-stalls=%d\n",
		st.IPC(), st.ThreadIPC(0), st.ThreadIPC(1), st.RFStalls)
	fmt.Println("The int-heavy thread should earn a high integer threshold and a")
	fmt.Println("near-zero FP one, and vice versa — a partition no static split finds.")
}
