// Fixture for the ctxflow analyzer: rule 1 (loops in context-aware
// functions must observe cancellation) and rule 2 (exported Run/Serve/Wait
// entry points must accept a context or forward Background to one).
package ctxloop

import (
	"context"
	"net/http"
	"testing"
)

func step()                       {}
func stepCtx(ctx context.Context) { _ = ctx }

// --- rule 1: loops in functions that receive a context ---

func spinForever(ctx context.Context) { // bug: unconditional loop, ctx ignored
	for { // want `long-running loop never observes ctx`
		step()
	}
}

func selectsOnDone(ctx context.Context, work chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case w := <-work:
			_ = w
		}
	}
}

func forwardsCtx(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		stepCtx(ctx) // passing ctx along counts as observing it
	}
}

func maskedPoll(ctx context.Context) {
	var now uint64
	for {
		if now&8191 == 0 && ctx.Err() != nil {
			return
		}
		now++
		step()
	}
}

func derivedCtx(parent context.Context) {
	child, cancel := context.WithCancel(parent)
	defer cancel()
	for { // clean: child is context-typed, so the loop observes cancellation
		if child.Err() != nil {
			return
		}
		step()
	}
}

func spawnOnly(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		go step() // spawned work owns its own cancellation
	}
	<-ctx.Done()
}

func boundedArithmetic(ctx context.Context) int {
	total := 0
	for i := 0; i < 10; i++ {
		total += i // no calls, no channels: not long-running
	}
	return total
}

func blockingNoPoll(ctx context.Context, work chan int) {
	for n := 0; n < 100; n++ { // want `long-running loop never observes ctx`
		<-work
	}
}

// --- rule 2: exported entry points ---

func Run() { // want `exported entry point Run looks long-running but has no context\.Context parameter`
	for {
		step()
	}
}

func RunBatch() error { // clean: thin forwarding wrapper
	return RunBatchCtx(context.Background())
}

func RunBatchCtx(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		step()
	}
}

func Runner() { // clean: "Run" is part of a longer word
	for {
		step()
	}
}

func RunOnce() {} // clean: no loops, nothing blocks

func Wait(done chan struct{}) { // want `exported entry point Wait looks long-running`
	<-done
}

func ServeHTTP(w http.ResponseWriter, r *http.Request) { // clean: r.Context() serves
	for {
		step()
	}
}

func run() { // clean: unexported
	for {
		step()
	}
}

// RunChecks is clean: a *testing.T parameter marks a test helper, driven
// and killed by the test framework's own deadline.
func RunChecks(t *testing.T, work chan int) {
	for w := range work {
		t.Log(w)
	}
}
