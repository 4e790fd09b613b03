package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
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
// tag arrays it releases hold a half-run's lines, and checks that the next
// run of the same spec, built on those arrays, matches a fresh runner's
// statistics exactly.
func TestRecycledAfterCancelMatchesFresh(t *testing.T) {
	const traceLen = 20000
	w, err := workload.Find("server.mem.2.1")
	if err != nil {
		t.Fatal(err)
	}
	s := table4Spec(w, "cdprf")

	// Two collections empty every sync.Pool, so the reference run below
	// builds on freshly allocated arrays; with the GC off from then on,
	// the pool keeps what each later run releases.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	want, err := runOne(NewRunner(traceLen), s)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(traceLen)
	if _, _, executed, _, err := r.Do(newPollCancelCtx(1), s, nil); !errors.Is(err, context.Canceled) || executed {
		t.Fatalf("cancelled run: executed=%v, err = %v; want context.Canceled, not executed", executed, err)
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
// pool workloads under icount and cdprf), the first of which only primes
// the tag-array pool. Recycled tag arrays keep a simulation well under the
// 400 KB budget; a fresh Table 1 hierarchy alone is 1.1 MB.
func TestSimulationAllocBudget(t *testing.T) {
	const (
		traceLen = 2000
		budget   = 400 << 10
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
		r.programs(s) // fill the trace memo
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
	if raceEnabled {
		// sync.Pool drops a random share of Puts under the race detector,
		// so a quarter of the builds allocate fresh arrays.
		return
	}
	if perSim > budget {
		t.Errorf("%d bytes allocated per executed simulation, budget %d", perSim, budget)
	}
}
