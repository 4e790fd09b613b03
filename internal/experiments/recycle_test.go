package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"clustersmt/internal/workload"
)

// pollCancelCtx is a context that cancels itself at its n-th Done poll.
// core.Processor.RunCtx polls Done once per 8192 simulated cycles, so a
// run under this context stops at a fixed cycle.
type pollCancelCtx struct {
	context.Context
	polls, n int
	done     chan struct{}
}

func newPollCancelCtx(n int) *pollCancelCtx {
	return &pollCancelCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	if c.polls++; c.polls == c.n {
		close(c.done)
	}
	return c.done
}

func (c *pollCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// table4Spec is workload w under scheme on the Table 4 machine: 32-entry
// IQs, 64 registers per kind per cluster, 128-entry per-thread ROBs.
func table4Spec(w workload.Workload, scheme string) Spec {
	return Spec{Workload: w, Scheme: scheme, IQSize: 32, RegsPerClust: 64, ROBPerThread: 128, SingleThread: -1}
}

// TestRecycledAfterCancelMatchesFresh cancels a run mid-simulation, so the
// machine it releases holds a half-run's cache lines, predictor state and
// in-flight entries, and checks that the next run of the same spec, built
// on that machine, matches a fresh runner's statistics exactly.
func TestRecycledAfterCancelMatchesFresh(t *testing.T) {
	const traceLen = 20000
	w, err := workload.Find("server.mem.2.1")
	if err != nil {
		t.Fatal(err)
	}
	s := table4Spec(w, "cdprf")

	want, err := runOne(NewRunner(traceLen), s)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(traceLen)
	if _, _, executed, _, err := r.Do(newPollCancelCtx(1), s, nil); !errors.Is(err, context.Canceled) || executed {
		t.Fatalf("cancelled run: executed=%v, err = %v; want context.Canceled, not executed", executed, err)
	}
	if n := r.Storage.machines.Len(); n != 1 {
		t.Fatalf("cancelled run left %d spare machines, want 1", n)
	}
	got, err := runOneCtx(context.Background(), r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run on recycled arrays differs from a fresh run\n got %+v\nwant %+v", got, want)
	}
}

// TestSimulationAllocBudget bounds the bytes one executed simulation
// allocates once its traces are memoized: 24 Table 4 specs at 2k uops (12
// pool workloads under icount and cdprf), the first of which only leaves
// its machine in the runner's Storage. Every later simulation builds on
// that machine, so what it allocates is its statistics, its policies and a
// few per-run buffers: 5.6 KB per simulation (7.3 KB under the race
// detector), against 257 KB when only the tag arrays were reused and
// 1.4 MB for a fresh machine (the Table 1 L2 tag array alone is 1.1 MB).
// The budget is twice the measured figure.
func TestSimulationAllocBudget(t *testing.T) {
	const (
		traceLen = 2000
		budget   = 11 << 10
	)
	pool := workload.Pool()[:12]
	var specs []Spec
	for _, w := range pool {
		for _, scheme := range []string{"icount", "cdprf"} {
			specs = append(specs, table4Spec(w, scheme))
		}
	}
	r := NewRunner(traceLen)
	for _, s := range specs {
		_, held := r.programs(s) // fill the trace memo
		r.release(held)
	}

	var before, after runtime.MemStats
	for i, s := range specs {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, _, executed, _, err := r.Do(context.Background(), s, nil); err != nil || !executed {
			t.Fatalf("%s: executed=%v, err=%v; want a fresh simulation", s.key(), executed, err)
		}
	}
	runtime.ReadMemStats(&after)
	perSim := (after.TotalAlloc - before.TotalAlloc) / uint64(len(specs)-1)
	t.Logf("%d bytes allocated per executed simulation", perSim)
	if perSim > budget {
		t.Errorf("%d bytes allocated per executed simulation, budget %d", perSim, budget)
	}
	if n := r.Storage.machines.Len(); n != 1 {
		t.Errorf("%d spare machines after one-at-a-time simulations, want 1", n)
	}
}

// TestRegeneratedTraceAllocBudget bounds the bytes one executed simulation
// allocates on a warm runner when its workload's traces must be generated
// again: the cold-sweep shape, where each workload's traces are dropped
// once its items are done. A first pass over 12 pool workloads at 2k uops
// leaves one machine and two trace buffers in the runner's Storage; in
// the second pass, under another scheme, every workload's traces are
// regenerated into those buffers, so a simulation allocates no trace
// storage: 8.1 KB per simulation (8.7 KB under the race detector), against
// 104 KB when each regeneration allocates its two 48 KB traces. The budget
// is twice the measured figure.
func TestRegeneratedTraceAllocBudget(t *testing.T) {
	const (
		traceLen = 2000
		budget   = 16 << 10
	)
	pool := workload.Pool()[:12]
	r := NewRunner(traceLen)
	pass := func(scheme string) {
		for _, w := range pool {
			s := table4Spec(w, scheme)
			if _, _, executed, _, err := r.Do(context.Background(), s, nil); err != nil || !executed {
				t.Fatalf("%s: executed=%v, err=%v; want a fresh simulation", s.key(), executed, err)
			}
			r.DropTraces(w)
		}
	}
	pass("icount")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass("cdprf")
	runtime.ReadMemStats(&after)
	perSim := (after.TotalAlloc - before.TotalAlloc) / uint64(len(pool))
	t.Logf("%d bytes allocated per executed simulation with regenerated traces", perSim)
	if perSim > budget {
		t.Errorf("%d bytes allocated per executed simulation with regenerated traces, budget %d", perSim, budget)
	}
	if n := len(freeBufs(r)); n != 2 {
		t.Errorf("%d free trace buffers after one-workload-at-a-time simulations, want 2", n)
	}
}
