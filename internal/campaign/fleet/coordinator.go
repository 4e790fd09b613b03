package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// Config sizes a Coordinator. The zero value is usable: in-memory store,
// 10s leases, 4 attempts per item.
type Config struct {
	// Store is the result store a fleet-mode service's engine reads and
	// writes when service.Config.Store is nil (typically *store.Store).
	// The coordinator itself never touches it, and workers never see it.
	// Nil selects a private in-memory store: results die with the process.
	Store experiments.ResultStore
	// LeaseTTL is the worker-liveness ttl: a worker none of whose calls
	// (register, heartbeat, lease, complete) arrived within it is reaped at
	// the next fleet call or Status, and its leases requeue (0 = 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per item before it poisons (0 = 4).
	MaxAttempts int
	// RetryBase/RetryCap shape the exponential backoff between an item's
	// attempts (0 = 250ms base, 10s cap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// PollInterval is the longest time a lease request waits for work
	// before it answers with an empty batch (the worker then leases again
	// at once), advertised to workers as poll_ms (0 = 250ms). It bounds
	// how long an idle worker's connection stays open, not how soon it sees
	// new work: a held lease answers as soon as work is enqueued.
	PollInterval time.Duration
	// Clock overrides the time source (tests; nil = time.Now).
	Clock func() time.Time
	// Verbose, when set, receives one line per fleet lifecycle event.
	Verbose func(string)
}

// Coordinator is the fleet's control plane: the worker registry and the
// dispatch queue, exposed over HTTP (see Register). It runs simulations,
// not campaigns: a campaign.Engine with Exec set to Execute sends each
// simulation its store cannot answer here, and the coordinator hands it to
// a worker. Concurrent campaigns' tasks interleave in one queue. It runs
// no goroutine of its own: every fleet call and Status reaps silent
// workers first.
type Coordinator struct {
	cfg     Config
	queue   *Queue
	reg     *registry
	taskSeq atomic.Int64
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
	if cfg.Store == nil {
		cfg.Store = experiments.NewMemStore()
	}
	return &Coordinator{
		cfg:   cfg,
		queue: NewQueue(cfg.MaxAttempts, cfg.RetryBase, cfg.RetryCap, clock),
		reg:   &registry{ttl: cfg.LeaseTTL, clock: clock, workers: make(map[string]*WorkerInfo)},
	}
}

// Store returns Config.Store, or the in-memory store standing in for a
// nil one.
func (c *Coordinator) Store() experiments.ResultStore { return c.cfg.Store }

// Close ends every held lease request at once and makes later lease
// requests answer 503, so an HTTP server's Shutdown — which waits for
// active handlers but does not cancel them — is not held up by idle
// workers. It does not cancel Execute calls; their contexts do.
func (c *Coordinator) Close() { c.queue.Close() }

// Status is the fleet's observable state, served by GET /v1/workers.
type Status struct {
	Workers []WorkerInfo `json:"workers"`
	Queue   QueueStats   `json:"queue"`
}

// Status reaps silent workers, then snapshots the registry and queue.
func (c *Coordinator) Status() Status {
	c.reap()
	leased := c.queue.leasedBy()
	ws := c.reg.list()
	for i := range ws {
		ws[i].Leased = leased[ws[i].ID]
	}
	return Status{Workers: ws, Queue: c.queue.Stats()}
}

// reap removes every worker past its liveness ttl from the registry and
// requeues its leases.
func (c *Coordinator) reap() {
	for _, id := range c.reg.reap() {
		n := c.queue.RequeueWorker(id)
		c.logf("worker %s reaped, %d leases requeued", id, n)
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Verbose != nil {
		c.cfg.Verbose("fleet: " + fmt.Sprintf(format, args...))
	}
}

// Execute runs one simulation on the fleet: it enqueues s as a task and
// returns the accepted completion's stats and Executed flag, or the poison
// error once the task exhausts its attempts. Cancelling ctx withdraws the
// task (a late completion for it is then a duplicate no-op) and returns
// ctx's error. Its signature is experiments.Runner.Exec's.
func (c *Coordinator) Execute(ctx context.Context, traceLen int, s experiments.Spec) (*metrics.Stats, bool, error) {
	id := fmt.Sprintf("t%06d", c.taskSeq.Add(1))
	done := make(chan Outcome, 1)
	if err := c.queue.Add(Task{ID: id, TraceLen: traceLen, Spec: s}, func(o Outcome) { done <- o }); err != nil {
		return nil, false, err
	}
	select {
	case o := <-done:
		return o.Stats, o.Executed, o.Err
	case <-ctx.Done():
		c.queue.Remove(id)
		return nil, false, ctx.Err()
	}
}
