package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/core"
	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

// TestWaiterSurvivesOwnerCancel: on a shared runner, a singleflight waiter
// whose own context is still live must not inherit the flight owner's
// cancellation — one job's DELETE must not fail overlapping items of other
// jobs. The waiter retries (becoming the new owner) and succeeds.
func TestWaiterSurvivesOwnerCancel(t *testing.T) {
	r := NewRunner(200_000)
	w, err := workload.Find("dh.mem.2.1")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workload: w, Scheme: "icount", IQSize: 32, SingleThread: -1}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var wg sync.WaitGroup
	var ownerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, ownerErr = r.RunCtx(ctxA, spec)
	}()

	// Wait for the owner's flight to register so the second call is a
	// waiter, not a second owner.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		_, inflight := r.inflight[spec.key()]
		r.mu.Unlock()
		if inflight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owner flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	var waiterSt *metrics.Stats
	var waiterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		waiterSt, waiterErr = r.Run(spec)
	}()

	// Let the waiter block on the flight, then cancel the owner mid-run.
	time.Sleep(30 * time.Millisecond)
	cancelA()
	wg.Wait()

	if ownerErr != nil && !errors.Is(ownerErr, context.Canceled) {
		t.Fatalf("owner error = %v", ownerErr)
	}
	if waiterErr != nil {
		t.Fatalf("waiter inherited the owner's cancellation: %v", waiterErr)
	}
	if waiterSt == nil || waiterSt.IPC() <= 0 {
		t.Fatalf("waiter stats = %+v", waiterSt)
	}
	// Exactly one successful execution no matter who ran it.
	if got := r.Executed(); got != 1 {
		t.Fatalf("executed = %d, want 1", got)
	}
}

// TestRunCtxCancelBeforeStart: a context cancelled before Run begins fails
// fast without executing or storing anything.
func TestRunCtxCancelBeforeStart(t *testing.T) {
	r := NewRunner(2000)
	w, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := Spec{Workload: w, Scheme: "icount", IQSize: 32, SingleThread: -1}
	if _, err := r.RunCtx(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r.Executed() != 0 {
		t.Fatalf("executed = %d", r.Executed())
	}
	if st, ok, _ := r.Store.Get(r.CacheKey(spec)); ok {
		t.Fatalf("cancelled run stored a result: %+v", st)
	}
}

// wedgedSpec is a simulation that never finishes: isfs.mix.2.1 under
// Icount with 16 registers per cluster stops committing, so it runs into
// its machine's cycle bound.
func wedgedSpec(t *testing.T) Spec {
	t.Helper()
	w, err := workload.Find("isfs.mix.2.1")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Workload: w, Scheme: "icount", IQSize: 32, RegsPerClust: 16, SingleThread: -1}
}

// TestRunCycleBoundIsAnError pins that a run stopped by its cycle bound
// fails with ErrCycleBound instead of returning the wedge's statistics: it
// is neither counted as executed nor stored, so a later run retries it.
func TestRunCycleBoundIsAnError(t *testing.T) {
	r := NewRunner(1000)
	s := wedgedSpec(t)
	st, err := r.Run(s)
	if !errors.Is(err, ErrCycleBound) {
		t.Fatalf("Run = %v, %v; want ErrCycleBound", st, err)
	}
	if st != nil {
		t.Errorf("bounded run returned stats %v", st)
	}
	if n := r.Executed(); n != 0 {
		t.Errorf("Executed = %d, want 0", n)
	}
	if _, ok, _ := r.Store.Get(r.CacheKey(s)); ok {
		t.Error("bounded run reached the store")
	}
}

// TestSimulateCycleBound runs the same wedge outside the runner, built by
// the exported constructors: Simulate reports the bound, and the machine
// stopped exactly there.
func TestSimulateCycleBound(t *testing.T) {
	s := wedgedSpec(t)
	cfg := Machine(s, 1000)
	if cfg.MaxCycles != 40*1000 {
		t.Fatalf("MaxCycles = %d, want 40 per uop", cfg.MaxCycles)
	}
	p, err := core.NewScheme(cfg, s.Scheme, Programs(s, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(context.Background(), p); !errors.Is(err, ErrCycleBound) {
		t.Fatalf("Simulate = %v, want ErrCycleBound", err)
	}
	if p.Now() != cfg.MaxCycles {
		t.Errorf("stopped at cycle %d, want the bound %d", p.Now(), cfg.MaxCycles)
	}
}
