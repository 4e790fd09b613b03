package experiments_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

// storages returns the distinct Storages of the runners w has seen.
func (w *memoWatch) storages() map[*experiments.Storage]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := map[*experiments.Storage]bool{}
	for r := range w.gens {
		s[r.Storage] = true
	}
	return s
}

// onlyStorage returns the one Storage every runner w has seen shares.
func onlyStorage(t *testing.T, w *memoWatch) *experiments.Storage {
	t.Helper()
	s := w.storages()
	if len(s) != 1 {
		t.Fatalf("the engine's runners use %d Storages, want 1", len(s))
	}
	for st := range s {
		return st
	}
	return nil
}

// batchSpec is a two-thread workload on the Table 4 machine.
func batchSpec(t *testing.T, name, scheme string) experiments.Spec {
	t.Helper()
	w, err := workload.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Spec{Workload: w, Scheme: scheme, IQSize: 32, RegsPerClust: 64, ROBPerThread: 128, SingleThread: -1}
}

// simulate answers s at trace length tl on eng as a batch of one item.
func simulate(eng *campaign.Engine, tl int, s experiments.Spec) (*metrics.Stats, bool, error) {
	return eng.Batch([]campaign.Item{{Spec: s, TraceLen: tl}}).Simulate(context.Background(), 0)
}

// runWorkerBatch answers one spec at trace length tl on eng the way a fleet
// worker answers a leased batch: it recycles every runner but the batch's
// and answers the task through an engine batch.
func runWorkerBatch(t *testing.T, eng *campaign.Engine, tl int, s experiments.Spec) *metrics.Stats {
	t.Helper()
	eng.Recycle(tl)
	b := eng.Batch([]campaign.Item{{Spec: s, TraceLen: tl}})
	defer b.Close()
	st, executed, err := b.Simulate(context.Background(), 0)
	if err != nil || !executed {
		t.Fatalf("trace length %d: executed=%v, err=%v; want a fresh simulation", tl, executed, err)
	}
	return st
}

// TestTraceReuseAcrossBatchLengths: a worker's engine runs a batch at
// length L and then one at L+1. The second batch builds on the machine the
// first released and generates its traces into the buffers the first
// freed, and its statistics equal a fresh engine's. Neither batch leaves a
// trace memoized.
func TestTraceReuseAcrossBatchLengths(t *testing.T) {
	const tl = 2000
	s := batchSpec(t, "dh.ilp.2.1", "icount")
	watch := watchMemos(t)
	eng := &campaign.Engine{Resume: true, Workers: 1} // as fleet.NewWorker builds it

	runWorkerBatch(t, eng, tl, s)
	st := onlyStorage(t, watch)
	if n := experiments.SpareMachines(st); n != 1 {
		t.Fatalf("after the first batch the engine holds %d spare machines, want 1", n)
	}
	freed := experiments.FreeTraceBuffers(st)
	if len(freed) != len(s.Workload.Threads) {
		t.Fatalf("the first batch freed %d trace buffers, want %d", len(freed), len(s.Workload.Threads))
	}
	if n := watch.leftover(); n != 0 {
		t.Fatalf("%d traces memoized after the first batch", n)
	}

	got := runWorkerBatch(t, eng, tl+1, s)
	if len(watch.gens) != 2 || onlyStorage(t, watch) != st {
		t.Fatalf("the two batches ran on %d runners over %d Storages, want 2 runners sharing the first one's",
			len(watch.gens), len(watch.storages()))
	}
	if n := experiments.SpareMachines(st); n != 1 {
		t.Errorf("after the second batch the engine holds %d spare machines, want 1", n)
	}
	if ok, desc := experiments.SameBufs(experiments.FreeTraceBuffers(st), freed); !ok {
		t.Errorf("after the second batch the free list holds %s the first batch freed", desc)
	}
	if n := watch.leftover(); n != 0 {
		t.Errorf("%d traces memoized after the second batch", n)
	}
	want, _, err := simulate(&campaign.Engine{Resume: true, Workers: 1}, tl+1, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run on the first batch's storage differs from a fresh engine's\n got %+v\nwant %+v", got, want)
	}
}

// TestMultiLengthPlanSharesSpares: a plan at two trace lengths on two
// workers ends with at most two spare machines over both lengths' runners,
// which share one Storage.
func TestMultiLengthPlanSharesSpares(t *testing.T) {
	plan := mustPlan(t, `{"workloads":["dh.ilp.2.1","isfs.mix.2.1","server.mix.2.1"],
		"schemes":["icount","cdprf"],"trace_lens":[1000,1500]}`)
	watch := watchMemos(t, plan)
	eng := &campaign.Engine{Workers: 2, Resume: true}
	rs := eng.RunPlan(context.Background(), plan, nil)
	if rs.Failed != 0 || rs.Executed != len(plan.Items) {
		t.Fatalf("%d executed, %d failed of %d", rs.Executed, rs.Failed, rs.Total)
	}
	if len(watch.gens) != 2 {
		t.Fatalf("%d runners memoized traces, want 2", len(watch.gens))
	}
	if n := experiments.SpareMachines(onlyStorage(t, watch)); n < 1 || n > 2 {
		t.Errorf("the engine holds %d spare machines after a two-length plan on 2 workers, want 1 or 2", n)
	}
}

// TestNewLengthAllocBudget bounds the bytes one simulation allocates at a
// trace length new to a warm engine: the fleet shape, where each
// submission may bring its own length. A first pass of one-item batches
// over 12 pool workloads at 2000 uops leaves one machine and two trace
// buffers in the engine's Storage. In the second pass each workload runs
// at a length of its own, 2001 to 2012 uops, so each simulation is its
// runner's first; it builds on that machine and fits its traces into those
// buffers, so it allocates no tag array (1.1 MB) and no trace (two of
// 48 KB): 13.3 KB per simulation (16.4–16.9 KB under the race detector),
// the new runner and its key encodings included. The budget is twice the
// measured figure.
func TestNewLengthAllocBudget(t *testing.T) {
	const (
		traceLen = 2000
		budget   = 27 << 10
	)
	pool := workload.Pool()[:12]
	eng := &campaign.Engine{Resume: true, Workers: 1}
	pass := func(lenOf func(i int) int) {
		for i, w := range pool {
			s := experiments.Spec{Workload: w, Scheme: "cdprf", IQSize: 32, RegsPerClust: 64, ROBPerThread: 128, SingleThread: -1}
			if _, executed, err := simulate(eng, lenOf(i), s); err != nil || !executed {
				t.Fatalf("%s at %d: executed=%v, err=%v; want a fresh simulation", w.Name, lenOf(i), executed, err)
			}
		}
	}
	pass(func(int) int { return traceLen })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(func(i int) int { return traceLen + 1 + i })
	runtime.ReadMemStats(&after)
	perSim := (after.TotalAlloc - before.TotalAlloc) / uint64(len(pool))
	t.Logf("%d bytes allocated per executed simulation at a new trace length", perSim)
	if perSim > budget {
		t.Errorf("%d bytes allocated per executed simulation at a new trace length, budget %d", perSim, budget)
	}
}
