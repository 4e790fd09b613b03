package fleet

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/metrics"
)

// fakeClock is a manually-advanced time source for lease tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// doneRecorder collects terminal outcomes and fails the test on a double
// delivery — OnDone must fire exactly once per task.
type doneRecorder struct {
	t  *testing.T
	mu sync.Mutex
	m  map[string][]Outcome
}

func newDoneRecorder(t *testing.T) *doneRecorder {
	return &doneRecorder{t: t, m: make(map[string][]Outcome)}
}

func (d *doneRecorder) onDone(o Outcome) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[o.ID] = append(d.m[o.ID], o)
	if len(d.m[o.ID]) > 1 {
		d.t.Errorf("OnDone fired %d times for %s", len(d.m[o.ID]), o.ID)
	}
}

func (d *doneRecorder) outcome(id string) (Outcome, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.m[id]) == 0 {
		return Outcome{}, false
	}
	return d.m[id][0], true
}

func newTestQueue(clk *fakeClock, maxAttempts int) *Queue {
	return NewQueue(maxAttempts, 100*time.Millisecond, time.Second, clk.now)
}

func TestDuplicateCompletionAfterExpiryIgnored(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, rec.onDone)
	q.Lease("w1", 1)

	// w1 goes silent and is reaped; w2 picks the item up.
	q.RequeueWorker("w1")
	clk.advance(time.Second)
	got := q.Lease("w2", 1)
	if len(got) != 1 || got[0].Attempt != 2 {
		t.Fatalf("w2 lease = %+v, want attempt 2", got)
	}

	// w1 finishes anyway and reports its stale attempt: rejected, no
	// outcome delivered. A worker-reported Executed on a stale attempt must
	// never reach the tally — this is the no-double-count guarantee behind
	// sims_executed_total.
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Executed: true, Stats: &metrics.Stats{}}) {
		t.Fatal("stale completion accepted")
	}
	if _, ok := rec.outcome("a"); ok {
		t.Fatal("stale completion delivered an outcome")
	}
	if st := q.Stats(); st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}

	// w2's live attempt lands normally, exactly once.
	if !q.Complete("w2", Completion{ID: "a", Attempt: 2, Executed: true, Stats: &metrics.Stats{}}) {
		t.Fatal("live completion rejected")
	}
	if q.Complete("w2", Completion{ID: "a", Attempt: 2, Executed: true, Stats: &metrics.Stats{}}) {
		t.Fatal("repeat of an accepted completion accepted again")
	}
	if o, ok := rec.outcome("a"); !ok || o.Attempt != 2 || !o.Executed {
		t.Fatalf("outcome = %+v, %v", o, ok)
	}
}

func TestCompletionFromWrongWorkerRejected(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	q.Add(Task{ID: "a"}, nil)
	q.Lease("w1", 1)
	if q.Complete("w2", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion from a worker that does not hold the lease was accepted")
	}
	if q.Complete("w1", Completion{ID: "nope", Attempt: 1}) {
		t.Fatal("completion for an unknown task accepted")
	}
}

func TestBackoffGatesRelease(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5) // base 100ms, cap 1s
	q.Add(Task{ID: "a"}, nil)

	q.Lease("w1", 1)
	q.Complete("w1", Completion{ID: "a", Attempt: 1, Error: "boom"})

	// Immediately after the failure the item is backing off.
	if got := q.Lease("w1", 1); len(got) != 0 {
		t.Fatalf("leased %d tasks during backoff, want 0", len(got))
	}
	clk.advance(150 * time.Millisecond) // past base<<0
	if got := q.Lease("w1", 1); len(got) != 1 {
		t.Fatal("item not leasable after backoff elapsed")
	}

	// Second failure doubles the backoff window.
	q.Complete("w1", Completion{ID: "a", Attempt: 2, Error: "boom"})
	clk.advance(150 * time.Millisecond)
	if got := q.Lease("w1", 1); len(got) != 0 {
		t.Fatal("second backoff did not grow")
	}
	clk.advance(100 * time.Millisecond) // total 250ms > base<<1
	if got := q.Lease("w1", 1); len(got) != 1 {
		t.Fatal("item not leasable after doubled backoff")
	}
}

func TestPoisonAfterAttemptCap(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 2)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, rec.onDone)

	for attempt := 1; attempt <= 2; attempt++ {
		clk.advance(2 * time.Second) // clears any backoff
		got := q.Lease("w1", 1)
		if len(got) != 1 {
			t.Fatalf("attempt %d not leased", attempt)
		}
		q.Complete("w1", Completion{ID: "a", Attempt: attempt, Error: "bad spec"})
	}

	o, ok := rec.outcome("a")
	if !ok {
		t.Fatal("poisoned task delivered no outcome")
	}
	if !errors.Is(o.Err, errPoisoned) {
		t.Fatalf("outcome error = %v, want errPoisoned", o.Err)
	}
	if !strings.Contains(o.Err.Error(), "bad spec") {
		t.Fatalf("poison error %q does not carry the last failure", o.Err)
	}
	st := q.Stats()
	if st.Poisoned != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want 1 poisoned", st)
	}
	// Terminal: never leased again.
	clk.advance(time.Hour)
	if got := q.Lease("w1", 1); len(got) != 0 {
		t.Fatal("poisoned task leased again")
	}
}

func TestRequeueWorkerReclaimsImmediately(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	q.Add(Task{ID: "a"}, nil)
	q.Add(Task{ID: "b"}, nil)
	q.Lease("w1", 2)

	// The registry reaped w1: its leases die with it.
	if n := q.RequeueWorker("w1"); n != 2 {
		t.Fatalf("RequeueWorker reclaimed %d, want 2", n)
	}
	if st := q.Stats(); st.Pending != 2 || st.Leased != 0 || st.Requeues != 2 || st.Expirations != 2 {
		t.Fatalf("stats = %+v, want both pending after 2 requeues and 2 expirations", st)
	}
	if n := q.RequeueWorker("w1"); n != 0 {
		t.Fatalf("second RequeueWorker reclaimed %d, want 0 (already requeued)", n)
	}
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion accepted after the worker was requeued")
	}
}

// TestLeaseOldestFirst: every worker is granted the oldest leasable tasks
// in enqueue order, whatever their IDs, and a task requeued after a failed
// attempt keeps its place once its backoff passes.
func TestLeaseOldestFirst(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	order := []string{"t7", "t3", "t5", "t0", "t6", "t1", "t4", "t2"}
	for _, id := range order {
		q.Add(Task{ID: id}, nil)
	}
	ids := func(ts []Task) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = t.ID
		}
		return out
	}
	if got := ids(q.Lease("w1", 3)); !slices.Equal(got, order[:3]) {
		t.Fatalf("w1 leased %v, want the three oldest %v", got, order[:3])
	}
	if got := ids(q.Lease("w2", 2)); !slices.Equal(got, order[3:5]) {
		t.Fatalf("w2 leased %v, want the next two %v", got, order[3:5])
	}
	// t3 fails: it backs off, so the next lease skips it...
	q.Complete("w1", Completion{ID: "t3", Attempt: 1, Error: "boom"})
	if got := ids(q.Lease("w2", 1)); !slices.Equal(got, order[5:6]) {
		t.Fatalf("w2 leased %v during t3's backoff, want %v", got, order[5:6])
	}
	// ...and once the backoff passes it is the oldest again.
	clk.advance(time.Second)
	want := []string{"t3", "t4", "t2"}
	if got := ids(q.Lease("w2", 8)); !slices.Equal(got, want) {
		t.Fatalf("w2 leased %v after t3's backoff, want %v", got, want)
	}
}

func TestRemoveSilencesCompletions(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, rec.onDone)
	q.Lease("w1", 1)

	q.Remove("a")
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion for a removed task accepted")
	}
	if _, ok := rec.outcome("a"); ok {
		t.Fatal("removed task delivered an outcome")
	}
}

// leaseResult is one LeaseWait call's answer and how long it took.
type leaseResult struct {
	tasks   []Task
	err     error
	elapsed time.Duration
}

// leaseAsync runs q.LeaseWait for worker in a goroutine.
func leaseAsync(q *Queue, worker string, hold time.Duration) <-chan leaseResult {
	ch := make(chan leaseResult, 1)
	go func() {
		start := time.Now()
		tasks, err := q.LeaseWait(context.Background(), worker, 4, hold)
		ch <- leaseResult{tasks, err, time.Since(start)}
	}()
	return ch
}

// waitHeld blocks until n lease requests are held open on q.
func waitHeld(t *testing.T, q *Queue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Held != n {
		if time.Now().After(deadline) {
			t.Fatalf("held lease requests = %d, want %d", q.Stats().Held, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLeaseWaitWakesOnAdd(t *testing.T) {
	q := NewQueue(4, 0, 0, nil)
	ch := leaseAsync(q, "w1", 5*time.Second)
	waitHeld(t, q, 1)
	start := time.Now()
	q.Add(Task{ID: "a"}, nil)
	r := <-ch
	if r.err != nil || len(r.tasks) != 1 || r.tasks[0].ID != "a" {
		t.Fatalf("held lease = %+v, want task a", r)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("held lease answered %s after the Add, want well under the 5s hold", d)
	}
	if st := q.Stats(); st.Held != 0 || st.Leased != 1 {
		t.Fatalf("stats after wake = %+v", st)
	}
}

// TestLeaseWaitWakesWhenBackoffPasses pins the retry path: a task requeued
// behind a backoff gate wakes a held lease when its notBefore passes, not
// when the hold runs out.
func TestLeaseWaitWakesWhenBackoffPasses(t *testing.T) {
	const backoff = 50 * time.Millisecond
	q := NewQueue(4, backoff, backoff, nil)
	q.Add(Task{ID: "a"}, nil)
	q.Lease("w1", 1)
	q.Complete("w1", Completion{ID: "a", Attempt: 1, Error: "boom"})

	r := <-leaseAsync(q, "w2", 5*time.Second)
	if r.err != nil || len(r.tasks) != 1 || r.tasks[0].Attempt != 2 {
		t.Fatalf("held lease = %+v, want task a at attempt 2", r)
	}
	if r.elapsed > time.Second {
		t.Fatalf("backoff-gated task leased after %s, want about %s", r.elapsed, backoff)
	}
}

func TestLeaseWaitHoldRunsOut(t *testing.T) {
	q := NewQueue(4, 0, 0, nil)
	r := <-leaseAsync(q, "w1", 30*time.Millisecond)
	if r.err != nil || len(r.tasks) != 0 {
		t.Fatalf("empty hold = %+v, want no tasks and no error", r)
	}
	if r.elapsed < 30*time.Millisecond {
		t.Fatalf("empty lease answered after %s, before its 30ms hold", r.elapsed)
	}
	if st := q.Stats(); st.Held != 0 {
		t.Fatalf("held = %d after the hold ran out", st.Held)
	}
}

func TestCloseReleasesHeldLeases(t *testing.T) {
	q := NewQueue(4, 0, 0, nil)
	a, b := leaseAsync(q, "w1", time.Minute), leaseAsync(q, "w2", time.Minute)
	waitHeld(t, q, 2)
	start := time.Now()
	q.Close()
	for _, ch := range []<-chan leaseResult{a, b} {
		select {
		case r := <-ch:
			if !errors.Is(r.err, errClosed) {
				t.Fatalf("held lease after Close = %+v, want errClosed", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("held lease still waiting 5s after Close")
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("held leases ended %s after Close, want under 100ms", d)
	}
	// Later requests fail at once, and nothing is dispatched.
	q.Add(Task{ID: "a"}, nil)
	if r := <-leaseAsync(q, "w1", time.Minute); !errors.Is(r.err, errClosed) || len(r.tasks) != 0 {
		t.Fatalf("lease on a closed queue = %+v", r)
	}
}

// TestTerminalTasksLeaveQueue pins the leak fix: completed and poisoned
// tasks are dropped (with their callbacks), while Done and Poisoned keep
// counting.
func TestTerminalTasksLeaveQueue(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 1)
	for _, id := range []string{"a", "b", "c"} {
		q.Add(Task{ID: id}, func(Outcome) {})
	}
	q.Lease("w1", 3)
	q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}})
	q.Complete("w1", Completion{ID: "b", Attempt: 1, Stats: &metrics.Stats{}})
	q.Complete("w1", Completion{ID: "c", Attempt: 1, Error: "bad spec"})

	q.mu.Lock()
	n := len(q.tasks)
	q.mu.Unlock()
	if n != 0 {
		t.Fatalf("queue holds %d tasks after all reached a terminal state", n)
	}
	if st := q.Stats(); st.Done != 2 || st.Poisoned != 1 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v, want done 2, poisoned 1, nothing live", st)
	}
	// A late report for a dropped task is a duplicate, as before.
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion for a finished task accepted")
	}
}

// TestAddRejectsDuplicate: an ID that is already queued is refused, and
// the queued task is untouched.
func TestAddRejectsDuplicate(t *testing.T) {
	q := NewQueue(4, 0, 0, nil)
	q.Add(Task{ID: "a", TraceLen: 1000}, nil)
	if err := q.Add(Task{ID: "a", TraceLen: 2000}, nil); err == nil {
		t.Fatal("Add accepted a duplicate ID")
	}
	if st := q.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d after the rejected Add, want 1", st.Pending)
	}
	if got := q.Lease("w1", 2); len(got) != 1 || got[0].TraceLen != 1000 {
		t.Fatalf("leased %+v, want the original task only", got)
	}
}
