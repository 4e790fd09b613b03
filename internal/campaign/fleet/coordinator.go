package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
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
	// coordinator's reap cadence while any Execute is outstanding
	// (0 = 250ms). It bounds how
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
// Register). It runs simulations, not campaigns: a campaign.Engine with
// Exec set to Execute sends each simulation its store cannot answer here,
// and the coordinator hands it to a worker. Concurrent campaigns' tasks
// interleave in one queue.
type Coordinator struct {
	cfg   Config
	store experiments.ResultStore
	queue *Queue
	reg   *registry

	mu      sync.Mutex
	taskSeq int
	waiting int           // Execute calls outstanding
	stop    chan struct{} // ends the failure-detector loop (waiting > 0)
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
		cfg:   cfg,
		store: st,
		queue: NewQueue(cfg.MaxAttempts, cfg.RetryBase, cfg.RetryCap, clock),
		reg:   newRegistry(cfg.LeaseTTL, clock),
	}
}

// Store returns the coordinator's shared result store.
func (c *Coordinator) Store() experiments.ResultStore { return c.store }

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

// Status snapshots the registry and queue.
func (c *Coordinator) Status() Status {
	leased := c.queue.leasedBy()
	ws := c.reg.list()
	for i := range ws {
		ws[i].Leased = leased[ws[i].ID]
	}
	return Status{Workers: ws, Queue: c.queue.Stats()}
}

// Tick advances the failure detector once: workers past their liveness ttl
// are reaped (their leases requeue immediately) and expired leases
// reclaimed. It ticks on PollInterval while any Execute is outstanding;
// tests drive it directly against a fake clock.
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

// Execute runs one simulation on the fleet: it enqueues s as a task and
// returns the accepted completion's stats and Executed flag, or the poison
// error once the task exhausts its attempts. Cancelling ctx withdraws the
// task (a late completion for it is then a duplicate no-op) and returns
// ctx's error. Its signature is experiments.Runner.Exec's.
func (c *Coordinator) Execute(ctx context.Context, traceLen int, s experiments.Spec) (*metrics.Stats, bool, error) {
	c.mu.Lock()
	c.taskSeq++
	id := fmt.Sprintf("t%06d", c.taskSeq)
	c.mu.Unlock()
	done := make(chan Outcome, 1)
	if err := c.queue.Add(Task{ID: id, TraceLen: traceLen, Spec: s}, func(o Outcome) { done <- o }); err != nil {
		return nil, false, err
	}
	defer c.detect()()
	select {
	case o := <-done:
		return o.Stats, o.Executed, o.Err
	case <-ctx.Done():
		c.queue.Remove(id)
		return nil, false, ctx.Err()
	}
}

// detect joins the failure-detector loop, starting it if no other Execute
// is waiting, and returns the call that leaves it: one loop ticks on
// PollInterval while any Execute is outstanding.
func (c *Coordinator) detect() (leave func()) {
	c.mu.Lock()
	if c.waiting++; c.waiting == 1 {
		stop := make(chan struct{})
		c.stop = stop
		go func() {
			t := time.NewTicker(c.cfg.PollInterval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					c.Tick()
				}
			}
		}()
	}
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		if c.waiting--; c.waiting == 0 {
			close(c.stop)
		}
		c.mu.Unlock()
	}
}
