// Package fleet scales the campaign service across processes: a
// coordinator owning the work queue, the worker registry and the shared
// result store, and pull-based workers that lease simulation tasks over
// HTTP, simulate them locally and report completions. The fleet runs
// simulations, not campaigns: campaign.Engine still turns every manifest
// into its ResultSet and sends each simulation its store cannot answer to
// Coordinator.Execute, which is what makes a fleet run of a manifest
// bit-for-bit identical to a local one.
//
// The failure model is lease-based: a worker that stops heartbeating (or
// never reports a leased task) loses its leases, and the tasks requeue
// with capped exponential backoff. Tasks that keep failing reach a
// terminal poison state after a bounded number of attempts, so one broken
// spec cannot wedge a campaign. Completions are idempotent, keyed by
// (task ID, attempt): duplicate or stale reports — a worker presumed dead
// that finishes anyway — are no-ops.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// Task is one leased work unit as handed to a worker: the simulation spec
// plus the lease's attempt number, which must be echoed in the completion
// (stale attempts are rejected).
type Task struct {
	ID       string           `json:"id"`
	Attempt  int              `json:"attempt"`
	TraceLen int              `json:"trace_len"`
	Spec     experiments.Spec `json:"spec"`
}

// Completion is a worker's report for one leased task. Executed
// distinguishes a fresh simulation from a store hit on the worker, feeding
// the campaign's executed/store-hit tally. Error marks a failed attempt:
// the item requeues (with backoff) until the attempt cap poisons it.
type Completion struct {
	ID       string         `json:"id"`
	Attempt  int            `json:"attempt"`
	Key      string         `json:"key,omitempty"`
	Executed bool           `json:"executed"`
	Error    string         `json:"error,omitempty"`
	Stats    *metrics.Stats `json:"stats,omitempty"`
}

// Outcome is a task's terminal result, delivered exactly once to the
// onDone callback registered at Add: either Stats from the accepted
// completion, or Err for a poisoned task.
type Outcome struct {
	ID       string
	Attempt  int
	Executed bool
	Stats    *metrics.Stats
	Err      error
}

// qstate is a queued task's lifecycle phase. Terminal tasks (completed or
// poisoned) leave the queue, so they have no state here.
type qstate int

const (
	statePending qstate = iota // waiting to be leased (possibly backing off)
	stateLeased                // held by a worker under a live lease
)

// qtask is the queue's record of one live task.
type qtask struct {
	task      Task // Attempt field tracks the latest lease
	seq       uint64
	state     qstate
	attempt   int       // lease grants so far
	worker    string    // current lease holder (stateLeased)
	expires   time.Time // lease deadline (stateLeased)
	notBefore time.Time // backoff gate (statePending)
	lastErr   string    // most recent attempt failure
	onDone    func(Outcome)
}

// QueueStats is a point-in-time tally of the queue's live tasks, plus
// monotonic event counters since the queue was created.
type QueueStats struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	// Held counts lease requests currently waiting for work (LeaseWait).
	Held int `json:"held"`
	// Done counts tasks completed successfully; Poisoned counts tasks that
	// exhausted their attempts. Both are monotonic: a task leaves the queue
	// when it reaches either terminal state.
	Done     int64 `json:"done"`
	Poisoned int64 `json:"poisoned"`
	// Requeues counts every return to pending: failed attempts, expired
	// leases and lost workers.
	Requeues int64 `json:"requeues"`
	// Expirations counts leases reclaimed by timeout or worker loss.
	Expirations int64 `json:"expirations"`
	// Duplicates counts rejected completion reports (stale attempt, wrong
	// worker, unknown or already-terminal task).
	Duplicates int64 `json:"duplicates"`
}

// Queue is the coordinator's dispatch queue: pending tasks are leased to
// workers in batches with rendezvous-hash affinity (so one item tends to
// revisit one worker's warm trace memos) and work-stealing (an idle worker
// drains the oldest pending work regardless of affinity). It is safe for
// concurrent use; onDone callbacks fire outside the queue's lock.
// A task leaves the queue when it reaches a terminal state, so the queue
// holds only live work however many campaigns it has run.
type Queue struct {
	maxAttempts int
	retryBase   time.Duration
	retryCap    time.Duration
	clock       func() time.Time

	mu                                sync.Mutex
	seq                               uint64
	tasks                             map[string]*qtask
	held                              int
	closed                            bool
	changed                           chan struct{} // closed and replaced by signalLocked
	done, poisoned                    int64
	requeues, expirations, duplicates int64
}

// NewQueue returns an empty queue. maxAttempts bounds lease grants per
// task before it poisons (min 1); retryBase/retryCap shape the exponential
// backoff between attempts; clock is the time source (nil = time.Now).
func NewQueue(maxAttempts int, retryBase, retryCap time.Duration, clock func() time.Time) *Queue {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	if retryBase <= 0 {
		retryBase = 250 * time.Millisecond
	}
	if retryCap < retryBase {
		retryCap = retryBase
	}
	if clock == nil {
		clock = time.Now
	}
	return &Queue{
		maxAttempts: maxAttempts,
		retryBase:   retryBase,
		retryCap:    retryCap,
		clock:       clock,
		tasks:       make(map[string]*qtask),
		changed:     make(chan struct{}),
	}
}

// signalLocked wakes every held lease request: work may have become
// leasable (or the queue closed). Callers hold q.mu.
func (q *Queue) signalLocked() {
	close(q.changed)
	q.changed = make(chan struct{})
}

// Close ends every held lease request and makes later LeaseWait calls
// return errClosed at once. Tasks stay queued; Close only stops dispatch.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		q.signalLocked()
	}
}

// Add enqueues one task. onDone (optional) fires exactly once, outside the
// queue lock, when the task reaches a terminal state. An ID that is
// already queued is an error.
func (q *Queue) Add(t Task, onDone func(Outcome)) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.tasks[t.ID]; ok {
		return fmt.Errorf("fleet: duplicate task %q", t.ID)
	}
	q.seq++
	q.tasks[t.ID] = &qtask{task: t, seq: q.seq, state: statePending, onDone: onDone}
	q.signalLocked()
	return nil
}

// Remove deletes task id regardless of state, without firing onDone —
// the caller is abandoning it (a cancelled Execute) and handles its own
// accounting. A completion for a removed task is a duplicate no-op.
func (q *Queue) Remove(id string) {
	q.mu.Lock()
	delete(q.tasks, id)
	q.mu.Unlock()
}

// owner returns the rendezvous-hash (highest-random-weight) owner of id
// among the live workers: each (task, worker) pair gets a stateless score
// and the max wins, so worker churn only remaps the items of the workers
// that actually changed.
func owner(id string, live []string) string {
	best, bestScore := "", uint64(0)
	for _, w := range live {
		h := fnv.New64a()
		_, _ = h.Write([]byte(id)) // fnv.Write cannot fail
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(w))
		if s := h.Sum64(); best == "" || s > bestScore {
			best, bestScore = w, s
		}
	}
	return best
}

// Lease grants workerID up to max pending tasks under a ttl lease: its own
// rendezvous shard first (oldest first), then — work-stealing — the oldest
// pending tasks owned by other workers. Backoff-gated tasks are skipped
// until their notBefore passes. Each granted task's attempt number
// increments. A closed queue grants nothing.
func (q *Queue) Lease(workerID string, live []string, max int, ttl time.Duration) []Task {
	out, _ := q.lease(workerID, live, max, ttl)
	return out
}

// errClosed is LeaseWait's answer once the queue is closed.
var errClosed = errors.New("fleet: coordinator shutting down")

// LeaseWait is Lease held open: while nothing is leasable it waits for the
// next change that may make work leasable — an Add, a requeue, a reclaimed
// lease, or a backoff gate passing — and tries again. It returns empty once
// hold elapses, ctx's error once ctx is done, and errClosed once the queue
// closes. live is re-read on every try, so workers that join or leave
// during the hold reshape affinity.
func (q *Queue) LeaseWait(ctx context.Context, workerID string, live func() []string, max int, ttl, hold time.Duration) ([]Task, error) {
	expired := time.NewTimer(hold)
	defer expired.Stop()
	var gate *time.Timer // the earliest backoff gate, reset per wait
	waiting := false
	defer func() {
		if gate != nil {
			gate.Stop()
		}
		if waiting {
			q.mu.Lock()
			q.held--
			q.mu.Unlock()
		}
	}()
	for {
		out, w := q.lease(workerID, live(), max, ttl)
		if w.closed {
			return nil, errClosed
		}
		if len(out) > 0 || max <= 0 {
			return out, nil
		}
		if !waiting {
			waiting = true
			q.mu.Lock()
			q.held++
			q.mu.Unlock()
		}
		var gated <-chan time.Time
		if !w.gate.IsZero() {
			d := w.gate.Sub(q.clock())
			if gate == nil {
				gate = time.NewTimer(d)
			} else {
				gate.Reset(d)
			}
			gated = gate.C
		}
		select {
		case <-w.changed:
		case <-gated:
		case <-expired.C:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitFor is what a lease that came back empty needs in order to wait,
// read under the same lock as the scan so no wake-up is lost: the channel
// the next change closes, the earliest backoff gate among the pending tasks
// the scan skipped (zero if none), and whether the queue is closed.
type waitFor struct {
	changed <-chan struct{}
	gate    time.Time
	closed  bool
}

// lease is Lease plus the waitFor of its scan.
func (q *Queue) lease(workerID string, live []string, max int, ttl time.Duration) ([]Task, waitFor) {
	now := q.clock()
	q.mu.Lock()
	w := waitFor{changed: q.changed, closed: q.closed}
	if max <= 0 || q.closed {
		q.mu.Unlock()
		return nil, w
	}
	var owned, steal []*qtask
	for _, t := range q.tasks {
		if t.state != statePending {
			continue
		}
		if now.Before(t.notBefore) {
			if w.gate.IsZero() || t.notBefore.Before(w.gate) {
				w.gate = t.notBefore
			}
			continue
		}
		if owner(t.task.ID, live) == workerID {
			owned = append(owned, t)
		} else {
			steal = append(steal, t)
		}
	}
	sortBySeq(owned)
	sortBySeq(steal)
	granted := make([]*qtask, 0, min(max, len(owned)+len(steal)))
	for _, t := range append(owned, steal...) {
		if len(granted) == max {
			break
		}
		t.state = stateLeased
		t.worker = workerID
		t.attempt++
		t.task.Attempt = t.attempt
		t.expires = now.Add(ttl)
		granted = append(granted, t)
	}
	out := make([]Task, len(granted))
	for i, t := range granted {
		out[i] = t.task
	}
	q.mu.Unlock()
	return out, w
}

// spec returns the spec of live task id.
func (q *Queue) spec(id string) (experiments.Spec, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tasks[id]; ok {
		return t.task.Spec, true
	}
	return experiments.Spec{}, false
}

// Renew extends every lease held by workerID to now+ttl (the heartbeat
// path) and returns how many it extended.
func (q *Queue) Renew(workerID string, ttl time.Duration) int {
	now := q.clock()
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, t := range q.tasks {
		if t.state == stateLeased && t.worker == workerID {
			t.expires = now.Add(ttl)
			n++
		}
	}
	return n
}

// Complete processes a worker's report for a leased task. It is accepted
// only if the task is currently leased to workerID under the same attempt
// number; anything else (stale attempt after an expiry requeued the item,
// a duplicate report, an unknown or terminal task) is counted and ignored,
// which is what makes completion idempotent. An accepted success fires
// onDone; an accepted failure requeues with backoff or poisons at the
// attempt cap.
func (q *Queue) Complete(workerID string, c Completion) bool {
	q.mu.Lock()
	t, ok := q.tasks[c.ID]
	if !ok || t.state != stateLeased || t.worker != workerID || t.attempt != c.Attempt {
		q.duplicates++
		q.mu.Unlock()
		return false
	}
	var done func(Outcome)
	var out Outcome
	if c.Error != "" {
		t.lastErr = c.Error
		done, out = q.failLocked(t)
	} else {
		delete(q.tasks, t.task.ID)
		q.done++
		done = t.onDone
		out = Outcome{ID: t.task.ID, Attempt: t.attempt, Executed: c.Executed, Stats: c.Stats}
	}
	q.mu.Unlock()
	if done != nil {
		done(out)
	}
	return true
}

// failLocked moves a leased task off its failed attempt: back to pending
// behind a capped exponential backoff (waking held lease requests, which
// wait out the gate), or — at the attempt cap — out of the queue as
// poisoned. Callers hold q.mu; the returned callback (nil unless poisoned)
// must be invoked after unlock.
func (q *Queue) failLocked(t *qtask) (func(Outcome), Outcome) {
	t.worker = ""
	if t.attempt >= q.maxAttempts {
		delete(q.tasks, t.task.ID)
		q.poisoned++
		err := fmt.Errorf("fleet: task %s %w after %d attempts: %s", t.task.ID, errPoisoned, t.attempt, t.lastErr)
		return t.onDone, Outcome{ID: t.task.ID, Attempt: t.attempt, Err: err}
	}
	t.state = statePending
	backoff := q.retryBase << (t.attempt - 1)
	if backoff > q.retryCap || backoff <= 0 {
		backoff = q.retryCap
	}
	t.notBefore = q.clock().Add(backoff)
	q.requeues++
	q.signalLocked()
	return nil, Outcome{}
}

// ExpireLeases reclaims every lease past its deadline: the items requeue
// (or poison at the attempt cap) exactly as a reported failure would, and
// any late completion for the old attempt becomes a duplicate no-op.
// It returns the number of leases reclaimed.
func (q *Queue) ExpireLeases() int {
	now := q.clock()
	return q.reclaim(func(t *qtask) bool { return now.After(t.expires) }, "lease expired")
}

// RequeueWorker reclaims every lease held by workerID immediately — the
// registry reaped it, so its leases are dead even if their ttl has time
// left. Returns the number reclaimed.
func (q *Queue) RequeueWorker(workerID string) int {
	return q.reclaim(func(t *qtask) bool { return t.worker == workerID }, "worker lost")
}

// reclaim applies the failure path to every leased task matching cond.
func (q *Queue) reclaim(cond func(*qtask) bool, reason string) int {
	q.mu.Lock()
	n := 0
	var dones []func(Outcome)
	var outs []Outcome
	for _, t := range q.tasks {
		if t.state != stateLeased || !cond(t) {
			continue
		}
		n++
		q.expirations++
		t.lastErr = reason
		if done, out := q.failLocked(t); done != nil {
			dones = append(dones, done)
			outs = append(outs, out)
		}
	}
	q.mu.Unlock()
	for i, done := range dones {
		done(outs[i])
	}
	return n
}

// leasedBy counts currently-held leases per worker ID.
func (q *Queue) leasedBy() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	m := make(map[string]int)
	for _, t := range q.tasks {
		if t.state == stateLeased {
			m[t.worker]++
		}
	}
	return m
}

// Stats snapshots the queue.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := QueueStats{
		Held:        q.held,
		Done:        q.done,
		Poisoned:    q.poisoned,
		Requeues:    q.requeues,
		Expirations: q.expirations,
		Duplicates:  q.duplicates,
	}
	for _, t := range q.tasks {
		if t.state == stateLeased {
			s.Leased++
		} else {
			s.Pending++
		}
	}
	return s
}

// sortBySeq orders tasks oldest-first by enqueue sequence (insertion
// sort: lease batches are small).
func sortBySeq(ts []*qtask) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j].seq < ts[j-1].seq; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// errPoisoned lets callers distinguish poison outcomes structurally.
var errPoisoned = errors.New("poisoned")
