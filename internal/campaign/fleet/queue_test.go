package fleet

import (
	"context"
	"errors"
	"fmt"
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

const ttl = 10 * time.Second

func newTestQueue(clk *fakeClock, maxAttempts int) *Queue {
	return NewQueue(maxAttempts, 100*time.Millisecond, time.Second, clk.now)
}

func TestExpiryRequeuesExactlyOnce(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	if err := q.Add(Task{ID: "a"}, nil, rec.onDone); err != nil {
		t.Fatal(err)
	}

	got := q.Lease("w1", []string{"w1"}, 10, ttl)
	if len(got) != 1 || got[0].Attempt != 1 {
		t.Fatalf("lease = %+v, want 1 task at attempt 1", got)
	}

	clk.advance(ttl + time.Second)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("first ExpireLeases reclaimed %d leases, want 1", n)
	}
	if n := q.ExpireLeases(); n != 0 {
		t.Fatalf("second ExpireLeases reclaimed %d leases, want 0 (already requeued)", n)
	}
	st := q.Stats()
	if st.Pending != 1 || st.Requeues != 1 || st.Expirations != 1 {
		t.Fatalf("stats after expiry = %+v", st)
	}

	// The requeued item leases again with a bumped attempt (after backoff).
	clk.advance(2 * time.Second)
	got = q.Lease("w1", []string{"w1"}, 10, ttl)
	if len(got) != 1 || got[0].Attempt != 2 {
		t.Fatalf("re-lease = %+v, want attempt 2", got)
	}
}

func TestRenewalPreventsRequeue(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)
	q.Lease("w1", []string{"w1"}, 1, ttl)

	// Heartbeat renewals inside the ttl keep the lease alive arbitrarily
	// long past the original deadline.
	for i := 0; i < 5; i++ {
		clk.advance(ttl / 2)
		if n := q.Renew("w1", ttl); n != 1 {
			t.Fatalf("Renew extended %d leases, want 1", n)
		}
		if n := q.ExpireLeases(); n != 0 {
			t.Fatalf("lease expired despite renewal (round %d)", i)
		}
	}
	if !q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{Cycles: 1}}) {
		t.Fatal("completion rejected on a renewed lease")
	}
	if o, ok := rec.outcome("a"); !ok || o.Err != nil {
		t.Fatalf("outcome = %+v, %v", o, ok)
	}
}

func TestDuplicateCompletionAfterExpiryIgnored(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)
	q.Lease("w1", []string{"w1", "w2"}, 1, ttl)

	// w1 goes silent; its lease expires and w2 picks the item up.
	clk.advance(ttl + time.Second)
	q.ExpireLeases()
	clk.advance(time.Second)
	got := q.Lease("w2", []string{"w2"}, 1, ttl)
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
	q.Add(Task{ID: "a"}, nil, nil)
	q.Lease("w1", []string{"w1"}, 1, ttl)
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
	q.Add(Task{ID: "a"}, nil, nil)

	q.Lease("w1", []string{"w1"}, 1, ttl)
	q.Complete("w1", Completion{ID: "a", Attempt: 1, Error: "boom"})

	// Immediately after the failure the item is backing off.
	if got := q.Lease("w1", []string{"w1"}, 1, ttl); len(got) != 0 {
		t.Fatalf("leased %d tasks during backoff, want 0", len(got))
	}
	clk.advance(150 * time.Millisecond) // past base<<0
	if got := q.Lease("w1", []string{"w1"}, 1, ttl); len(got) != 1 {
		t.Fatal("item not leasable after backoff elapsed")
	}

	// Second failure doubles the backoff window.
	q.Complete("w1", Completion{ID: "a", Attempt: 2, Error: "boom"})
	clk.advance(150 * time.Millisecond)
	if got := q.Lease("w1", []string{"w1"}, 1, ttl); len(got) != 0 {
		t.Fatal("second backoff did not grow")
	}
	clk.advance(100 * time.Millisecond) // total 250ms > base<<1
	if got := q.Lease("w1", []string{"w1"}, 1, ttl); len(got) != 1 {
		t.Fatal("item not leasable after doubled backoff")
	}
}

func TestPoisonAfterAttemptCap(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 2)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)

	for attempt := 1; attempt <= 2; attempt++ {
		clk.advance(2 * time.Second) // clears any backoff
		got := q.Lease("w1", []string{"w1"}, 1, ttl)
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
	if got := q.Lease("w1", []string{"w1"}, 1, ttl); len(got) != 0 {
		t.Fatal("poisoned task leased again")
	}
}

func TestRequeueWorkerReclaimsImmediately(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	q.Add(Task{ID: "a"}, nil, nil)
	q.Add(Task{ID: "b"}, nil, nil)
	q.Lease("w1", []string{"w1"}, 2, ttl)

	// The registry reaped w1: its leases die now, not at ttl.
	if n := q.RequeueWorker("w1"); n != 2 {
		t.Fatalf("RequeueWorker reclaimed %d, want 2", n)
	}
	if st := q.Stats(); st.Pending != 2 || st.Leased != 0 {
		t.Fatalf("stats = %+v, want both pending", st)
	}
	if q.Complete("w1", Completion{ID: "a", Attempt: 1, Stats: &metrics.Stats{}}) {
		t.Fatal("completion accepted after the worker was requeued")
	}
}

func TestAffinityAndStealing(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	live := []string{"w1", "w2"}
	var w1Owned []string
	for _, id := range []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"} {
		q.Add(Task{ID: id}, nil, nil)
		if owner(id, live) == "w1" {
			w1Owned = append(w1Owned, id)
		}
	}
	if len(w1Owned) == 0 || len(w1Owned) == 8 {
		t.Fatalf("degenerate rendezvous split: w1 owns %d of 8", len(w1Owned))
	}

	// Affinity: a lease capped at w1's shard size returns exactly its shard.
	got := q.Lease("w1", live, len(w1Owned), ttl)
	gotIDs := make(map[string]bool)
	for _, task := range got {
		gotIDs[task.ID] = true
	}
	for _, id := range w1Owned {
		if !gotIDs[id] {
			t.Fatalf("w1's lease %v skipped its own shard item %s", gotIDs, id)
		}
	}

	// Stealing: w1 asks again and drains w2's untouched shard.
	rest := q.Lease("w1", live, 8, ttl)
	if len(got)+len(rest) != 8 {
		t.Fatalf("w1 leased %d+%d items, want all 8", len(got), len(rest))
	}
}

func TestRemoveSilencesCompletions(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(clk, 5)
	rec := newDoneRecorder(t)
	q.Add(Task{ID: "a"}, nil, rec.onDone)
	q.Lease("w1", []string{"w1"}, 1, ttl)

	q.Remove([]string{"a"})
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
		tasks, err := q.LeaseWait(context.Background(), worker, func() []string { return []string{worker} }, 4, ttl, hold)
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
	q.Add(Task{ID: "a"}, nil, nil)
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
	q.Add(Task{ID: "a"}, nil, nil)
	q.Lease("w1", []string{"w1"}, 1, ttl)
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
	q.Add(Task{ID: "a"}, nil, nil)
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
		q.Add(Task{ID: id}, nil, func(Outcome) {})
	}
	q.Lease("w1", []string{"w1"}, 3, ttl)
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

// TestAddAllIsAtomic pins the batch enqueue: a duplicate ID, within the
// batch or already queued, rejects the whole batch.
func TestAddAllIsAtomic(t *testing.T) {
	q := NewQueue(4, 0, 0, nil)
	q.Add(Task{ID: "a"}, nil, nil)
	for _, ids := range [][]string{{"b", "a"}, {"c", "c"}} {
		entries := make([]Entry, len(ids))
		for i, id := range ids {
			entries[i] = Entry{Task: Task{ID: id}}
		}
		if err := q.AddAll(entries); err == nil {
			t.Fatalf("AddAll(%v) accepted a duplicate", ids)
		}
	}
	if st := q.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d after rejected batches, want 1", st.Pending)
	}
}

// TestHeldLeaseSeesWholeBatch pins why campaigns enqueue with AddAll: the
// held request wakes once the batch is in, so it takes its own affinity
// shard, not the first task the enqueue happened to expose.
func TestHeldLeaseSeesWholeBatch(t *testing.T) {
	q := NewQueue(4, 0, 0, nil)
	live := []string{"w1", "w2"}
	var entries []Entry
	var want []string // w1's shard, oldest first
	for i := 0; len(want) < 2; i++ {
		id := fmt.Sprintf("t%02d", i)
		entries = append(entries, Entry{Task: Task{ID: id}})
		if owner(id, live) == "w1" {
			want = append(want, id)
		}
	}
	ch := make(chan []Task, 1)
	go func() {
		tasks, _ := q.LeaseWait(context.Background(), "w1", func() []string { return live }, 2, ttl, 5*time.Second)
		ch <- tasks
	}()
	waitHeld(t, q, 1)
	if err := q.AddAll(entries); err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if len(got) != 2 || got[0].ID != want[0] || got[1].ID != want[1] {
		t.Fatalf("held lease took %+v, want w1's shard %v", got, want)
	}
}
