package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
)

// Config sizes a Coordinator. The zero value is usable: in-memory store,
// 10s leases, 4 attempts per item.
type Config struct {
	// Store is the fleet-shared result layer (typically *store.Store),
	// served to workers over GET/PUT /v1/store/{key}. Nil selects a private
	// in-memory store — the fleet still dedups, but results die with the
	// coordinator.
	Store experiments.ResultStore
	// LeaseTTL is how long a leased item stays assigned without a heartbeat
	// before it requeues; it is also the worker-liveness ttl (0 = 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per item before it poisons (0 = 4).
	MaxAttempts int
	// RetryBase/RetryCap shape the exponential backoff between an item's
	// attempts (0 = 250ms base, 10s cap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// PollInterval is the longest time a lease request waits for work
	// before it answers with an empty batch (the worker then leases again
	// at once), advertised to workers as poll_ms; it is also the
	// coordinator's reap cadence during a run (0 = 250ms). It bounds how
	// long an idle worker's connection stays open, not how soon it sees new
	// work: a held lease answers as soon as work is enqueued.
	PollInterval time.Duration
	// Clock overrides the time source (tests; nil = time.Now).
	Clock func() time.Time
	// Verbose, when set, receives one line per fleet lifecycle event.
	Verbose func(string)
}

// Coordinator is the fleet's control plane: the worker registry, the
// dispatch queue and the shared result store, exposed over HTTP (see
// Register). Campaigns run through RunCtx, which is signature-compatible
// with campaign.Engine.RunCtx — the service swaps one for the other in
// fleet mode. A single Coordinator serves concurrent campaigns; their
// items interleave in one queue.
type Coordinator struct {
	cfg   Config
	store experiments.ResultStore
	queue *Queue
	reg   *registry
	clock func() time.Time

	// putErrors counts completed results the coordinator failed to write
	// into the shared store.
	putErrors atomic.Int64

	mu     sync.Mutex
	runSeq int
	keyers map[int]*experiments.Runner
}

// NewCoordinator returns a coordinator with cfg's defaults applied.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 250 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 10 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	st := cfg.Store
	if st == nil {
		st = experiments.NewMemStore()
	}
	return &Coordinator{
		cfg:    cfg,
		store:  st,
		queue:  NewQueue(cfg.MaxAttempts, cfg.RetryBase, cfg.RetryCap, clock),
		reg:    newRegistry(cfg.LeaseTTL, clock),
		clock:  clock,
		keyers: make(map[int]*experiments.Runner),
	}
}

// Store returns the coordinator's shared result store.
func (c *Coordinator) Store() experiments.ResultStore { return c.store }

// Close ends every held lease request at once and makes later lease
// requests answer 503, so an HTTP server's Shutdown — which waits for
// active handlers but does not cancel them — is not held up by idle
// workers. It does not cancel running campaigns; their contexts do.
func (c *Coordinator) Close() { c.queue.Close() }

// Status is the fleet's observable state, served by GET /v1/workers.
type Status struct {
	Workers []WorkerInfo `json:"workers"`
	Queue   QueueStats   `json:"queue"`
	// StorePutErrors counts completed results the coordinator failed to
	// write into the shared store (the item still completes; each failure
	// is also logged).
	StorePutErrors int64 `json:"store_put_errors"`
}

// Status snapshots the registry and queue.
func (c *Coordinator) Status() Status {
	leased := c.queue.leasedBy()
	ws := c.reg.list()
	for i := range ws {
		ws[i].Leased = leased[ws[i].ID]
	}
	return Status{Workers: ws, Queue: c.queue.Stats(), StorePutErrors: c.putErrors.Load()}
}

// Tick advances the failure detector once: workers past their liveness ttl
// are reaped (their leases requeue immediately) and expired leases
// reclaimed. RunCtx ticks on PollInterval while a campaign runs; tests
// drive it directly against a fake clock.
func (c *Coordinator) Tick() {
	for _, id := range c.reg.reap() {
		n := c.queue.RequeueWorker(id)
		c.logf("worker %s reaped, %d leases requeued", id, n)
	}
	if n := c.queue.ExpireLeases(); n > 0 {
		c.logf("%d expired leases requeued", n)
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Verbose != nil {
		c.cfg.Verbose("fleet: " + fmt.Sprintf(format, args...))
	}
}

// keyFor computes an item's content-addressed result key on the
// coordinator, via a cached per-trace-length keyer runner. Result rows
// therefore carry exactly the keys a local Engine run would, independent of
// what any worker reports.
func (c *Coordinator) keyFor(tl int, s experiments.Spec) string {
	c.mu.Lock()
	r, ok := c.keyers[tl]
	if !ok {
		r = experiments.NewRunner(tl)
		c.keyers[tl] = r
	}
	c.mu.Unlock()
	return r.CacheKey(s)
}

// RunCtx expands m into a plan, enqueues every item for the fleet and
// blocks until all items reach a terminal state (completed or poisoned) or
// ctx is cancelled. The signature and semantics mirror
// campaign.Engine.RunCtx: progress receives Started on every lease grant
// and exactly one Result per item; cancellation returns the partial
// ResultSet with context errors on unfinished items, not an error.
func (c *Coordinator) RunCtx(ctx context.Context, m *campaign.Manifest, progress func(campaign.ItemEvent)) (*campaign.ResultSet, error) {
	plan, err := campaign.NewPlan(m)
	if err != nil {
		return nil, err
	}
	rs := plan.NewResultSet(core.SimVersion)
	n := len(plan.Items)
	if n == 0 {
		plan.Finalize(rs)
		return rs, nil
	}

	c.mu.Lock()
	c.runSeq++
	runID := c.runSeq
	c.mu.Unlock()

	var (
		resMu     sync.Mutex
		completed = make([]bool, n)
		remaining = n
		done      = make(chan struct{})
	)
	ids := make([]string, n)
	entries := make([]Entry, n)
	for i := range plan.Items {
		i := i
		it := plan.Items[i]
		ids[i] = fmt.Sprintf("r%06d/%d", runID, i)
		key := c.keyFor(it.TraceLen, it.Spec)
		onLease := func(Task) {
			if progress != nil {
				progress(campaign.ItemEvent{Index: i, Started: true})
			}
		}
		onDone := func(o Outcome) {
			// Replicate the stats into the shared store even if the worker's
			// own PUT failed; duplicates are idempotent writes.
			if o.Err == nil && o.Stats != nil {
				if err := c.store.Put(key, o.Stats); err != nil {
					c.putErrors.Add(1)
					c.logf("campaign %s item %d: store put %s: %v", m.Name, i, key, err)
				}
			}
			res := plan.Result(i, key, o.Stats, o.Executed, o.Err)
			resMu.Lock()
			if completed[i] {
				resMu.Unlock()
				return
			}
			completed[i] = true
			rs.Results[i] = res
			remaining--
			last := remaining == 0
			resMu.Unlock()
			if progress != nil {
				progress(campaign.ItemEvent{Index: i, Result: &rs.Results[i]})
			}
			if last {
				close(done)
			}
		}
		entries[i] = Entry{Task: Task{ID: ids[i], TraceLen: it.TraceLen, Spec: it.Spec}, OnLease: onLease, OnDone: onDone}
	}
	if err := c.queue.AddAll(entries); err != nil {
		return nil, err
	}
	c.logf("campaign %s: %d items enqueued", m.Name, n)

	tick := time.NewTicker(c.cfg.PollInterval)
	defer tick.Stop()
	for {
		select {
		case <-done:
			plan.Finalize(rs)
			c.logf("campaign %s: complete (%d executed, %d store hits, %d failed)",
				m.Name, rs.Executed, rs.StoreHits, rs.Failed)
			return rs, nil
		case <-ctx.Done():
			// Abandon the run: drop every queued/leased item so late
			// completions become duplicate no-ops, then fail what never
			// finished with the context's error. Finished items keep their
			// results, matching the Engine's cancellation contract.
			c.queue.Remove(ids)
			resMu.Lock()
			for i := range completed {
				if !completed[i] {
					completed[i] = true
					rs.Results[i] = plan.Result(i, "", nil, false, ctx.Err())
				}
			}
			resMu.Unlock()
			plan.Finalize(rs)
			c.logf("campaign %s: canceled", m.Name)
			return rs, nil
		case <-tick.C:
			c.Tick()
		}
	}
}
