package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/isa"
	"clustersmt/internal/trace"
)

// drive is the trace and core work behind one executed item, measured by
// running it again outside the campaign stack.
type drive struct {
	gen, build, run time.Duration // gen is zero when an earlier item made the traces
}

// redriveTotals sums the re-driven work of one submission.
type redriveTotals struct {
	gen, build, run time.Duration
	uops            int64 // trace uops generated
	cycles          int64 // Processor.Now() at the end, warm-up included
	renamed         uint64
	squashed        uint64
	copies          uint64
	iqStalls        uint64
	flushes         uint64
	l1Accesses      uint64
	l1Misses        uint64
	l2Misses        uint64
	coalesced       uint64
	items           map[int]drive
}

// machineFor mirrors experiments.Runner's machine construction for an
// item: the Table 1 defaults, the item's resources and shape, and the
// runner's cycle bound and warm-up (a fifth of the trace).
func machineFor(it campaign.Item) core.Config {
	s := it.Spec
	n := len(s.Workload.Threads)
	if s.SingleThread >= 0 {
		n = 1
	}
	cfg := core.DefaultConfig(n)
	cfg.IQSize = s.IQSize
	cfg.IntRegsPerCluster = s.RegsPerClust
	cfg.FpRegsPerCluster = s.RegsPerClust
	cfg.ROBPerThread = s.ROBPerThread
	cfg.MaxCycles = int64(it.TraceLen) * 40
	cfg.WarmupUops = uint64(it.TraceLen / 5)
	if s.NumClusters > 0 {
		cfg.NumClusters = s.NumClusters
	}
	if s.Links > 0 {
		cfg.Net.Links = s.Links
	}
	if s.LinkLatency > 0 {
		cfg.Net.Latency = s.LinkLatency
	}
	if s.MemLatency > 0 {
		cfg.Cache.MemLatency = s.MemLatency
	}
	return cfg
}

// redrive re-runs every executed row of a submission through
// trace.NewGenerator(...).Generate, core.NewScheme and Processor.RunCtx,
// timing each call, and requires the resulting Stats to equal the store's
// entry for the row: that guards this mirror of the runner's program
// construction. Traces are generated once per workload thread, as the
// runner's trace memo does.
func redrive(ctx context.Context, plan *campaign.Plan, rows []campaign.Result, st experiments.ResultStore) (*redriveTotals, error) {
	tot := &redriveTotals{items: map[int]drive{}}
	traces := map[string][]isa.Uop{}
	for i, r := range rows {
		if r.Cached {
			continue
		}
		it := plan.Items[i]
		w := it.Spec.Workload
		var d drive
		var progs []core.ThreadProgram
		for t, prof := range w.Threads {
			if it.Spec.SingleThread >= 0 && t != it.Spec.SingleThread {
				continue
			}
			k := fmt.Sprintf("%s/%d/%d/%d", w.Name, t, w.Seeds[t], it.TraceLen)
			uops, ok := traces[k]
			if !ok {
				t0 := time.Now()
				uops = trace.NewGenerator(prof, w.Seeds[t]).Generate(it.TraceLen)
				d.gen += time.Since(t0)
				traces[k] = uops
				tot.uops += int64(len(uops))
			}
			progs = append(progs, core.ThreadProgram{Trace: uops, Profile: prof, Seed: w.Seeds[t] ^ 0xabcdef})
		}
		t0 := time.Now()
		p, err := core.NewScheme(machineFor(it), it.Spec.Scheme, progs)
		d.build = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("re-drive %s: %w", r.Label, err)
		}
		t0 = time.Now()
		stats, err := p.RunCtx(ctx)
		d.run = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("re-drive %s: %w", r.Label, err)
		}
		want, ok, err := st.Get(r.Key)
		if err != nil || !ok {
			return nil, fmt.Errorf("re-drive %s: store entry %s unreadable (found=%v): %v", r.Label, r.Key, ok, err)
		}
		if !reflect.DeepEqual(stats, want) {
			return nil, fmt.Errorf("re-drive %s: stats differ from the store entry\nre-driven: %v\nstored:    %v", r.Label, stats, want)
		}
		tot.items[i] = d
		tot.gen += d.gen
		tot.build += d.build
		tot.run += d.run
		tot.cycles += p.Now()
		tot.renamed += stats.Renamed
		tot.squashed += stats.Squashed
		tot.copies += stats.CopiesGenerated
		tot.iqStalls += stats.IQStalls
		tot.flushes += stats.Flushes
		mem := p.Mem().Stats()
		tot.l1Accesses += mem.L1Accesses
		tot.l1Misses += mem.L1Misses
		tot.l2Misses += mem.L2Misses
		tot.coalesced += mem.Coalesced
	}
	return tot, nil
}
