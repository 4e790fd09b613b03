package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"clustersmt/internal/campaign"
)

// WorkerConfig sizes a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:8080").
	Coordinator string
	// Name labels the worker in the registry (hostname, usually).
	Name string
	// Parallel bounds concurrent simulations on this worker (0 = NumCPU).
	Parallel int
	// BatchSize bounds tasks per lease request (0 = 2×Parallel, so the
	// worker always has a next item ready without hoarding the queue).
	BatchSize int
	// Client overrides the HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Verbose, when set, receives one line per worker lifecycle event.
	Verbose func(string)
}

// Worker is the fleet's data plane: it registers with a coordinator,
// heartbeats in the background, pulls task batches, simulates each batch
// through a local campaign.Engine (Engine.Batch, on its in-memory
// runners) and reports the stats. It never reads or writes the shared
// store: the coordinator's engine answers store hits before a task is
// queued and puts every result it accepts.
// The worker keeps only the runners for the trace lengths of the batch at
// hand, and a batch's traces only until its last task needing them is
// done; its engine keeps the machines and trace buffers for the next
// batch, whatever its lengths.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	eng    *campaign.Engine

	mu        sync.Mutex
	id        string
	heartbeat time.Duration

	// Test seams (package-internal): observe task pickup and inject
	// per-task execution failures without touching the simulation path.
	testOnTaskStart func(Task)
	testExecuteErr  func(Task) error
}

// NewWorker validates cfg and returns an unstarted worker; Run drives it.
// A coordinator URL without scheme://host is an error here, not at the
// first request.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	u, err := url.Parse(cfg.Coordinator)
	if err != nil {
		return nil, fmt.Errorf("fleet: coordinator %q: %w", cfg.Coordinator, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fleet: coordinator %q: need scheme://host", cfg.Coordinator)
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.NumCPU()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 2 * cfg.Parallel
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	return &Worker{
		cfg:    cfg,
		client: client,
		eng:    &campaign.Engine{Resume: true, Workers: cfg.Parallel},
	}, nil
}

// ID returns the coordinator-assigned worker ID ("" before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Verbose != nil {
		w.cfg.Verbose("worker: " + fmt.Sprintf(format, args...))
	}
}

// Run registers with the coordinator and processes leased tasks until ctx
// is cancelled (the only way it returns; registration retries forever).
// The returned error is ctx's. The coordinator holds an idle worker's lease
// request until work arrives, so Run leases again at once after an empty
// batch; it backs off only after a failed lease call.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer wg.Wait()

	var retry backoff
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tasks, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			d := retry.next()
			w.logf("lease: %v (retrying in %s)", err, d)
			sleepCtx(ctx, d)
			continue
		}
		retry = backoff{}
		w.execute(ctx, tasks)
	}
}

// backoff is a capped exponential retry delay: 100ms, doubling to 5s. The
// zero value starts over.
type backoff struct{ d time.Duration }

func (b *backoff) next() time.Duration {
	if b.d == 0 {
		b.d = 100 * time.Millisecond
	} else {
		b.d = min(2*b.d, 5*time.Second)
	}
	return b.d
}

// register obtains a worker identity, retrying until ctx expires — a
// worker may start before its coordinator.
func (w *Worker) register(ctx context.Context) error {
	var retry backoff
	for {
		var resp RegisterResponse
		code, err := w.postJSON(ctx, "/v1/workers", RegisterRequest{Name: w.cfg.Name}, &resp)
		if err == nil && code == http.StatusOK {
			w.mu.Lock()
			w.id = resp.ID
			w.heartbeat = time.Duration(resp.HeartbeatMs) * time.Millisecond
			w.mu.Unlock()
			w.logf("registered as %s (heartbeat %s)", resp.ID, w.heartbeat)
			return nil
		}
		if err == nil {
			err = fmt.Errorf("register: status %d", code)
		}
		w.logf("register: %v (retrying)", err)
		if !sleepCtx(ctx, retry.next()) {
			return ctx.Err()
		}
	}
}

// heartbeatLoop keeps the worker, and so its leases, alive on the
// coordinator-advertised cadence, also while every slot is simulating. A
// 404 means the coordinator reaped us (our leases are already requeued):
// re-register for a fresh identity.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	interval := w.heartbeat
	w.mu.Unlock()
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			id := w.ID()
			code, err := w.postJSON(ctx, "/v1/workers/"+id+"/heartbeat", nil, nil)
			switch {
			case ctx.Err() != nil:
				return
			case err != nil:
				w.logf("heartbeat: %v", err)
			case code == http.StatusNotFound:
				w.logf("heartbeat: identity %s reaped; re-registering", id)
				if err := w.register(ctx); err != nil {
					w.logf("re-register: %v", err)
				}
			}
		}
	}
}

// lease pulls a task batch, which the coordinator holds until work can be
// leased; a 404 (reaped identity) re-registers and returns empty so the
// caller just leases again.
func (w *Worker) lease(ctx context.Context) ([]Task, error) {
	id := w.ID()
	var resp LeaseResponse
	code, err := w.postJSON(ctx, "/v1/workers/"+id+"/lease", LeaseRequest{Max: w.cfg.BatchSize}, &resp)
	if err != nil {
		return nil, err
	}
	if code == http.StatusNotFound {
		w.logf("lease: identity %s reaped; re-registering", id)
		if err := w.register(ctx); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("lease: status %d", code)
	}
	return resp.Tasks, nil
}

// execute simulates a leased batch as one engine batch, one goroutine per
// task (the engine's gate of Parallel slots bounds the simulations), and
// reports completions. It returns once every task is done.
func (w *Worker) execute(ctx context.Context, tasks []Task) {
	lens := make([]int, len(tasks))
	items := make([]campaign.Item, len(tasks))
	for i, t := range tasks {
		lens[i] = t.TraceLen
		items[i] = campaign.Item{Spec: t.Spec, TraceLen: t.TraceLen}
	}
	// Each campaign may bring new trace lengths: keep only the runners
	// this batch uses, so memory does not grow with every length seen. The
	// engine keeps its spare machines and free trace buffers, which serve
	// any length, and each workload's traces go back to them when the
	// batch's last task needing them is done.
	w.eng.Recycle(lens...)
	b := w.eng.Batch(items)
	defer b.Close()
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.runTask(ctx, b, i, t)
		}()
	}
	wg.Wait()
}

// runTask simulates one leased task and reports its completion. A task
// whose execution was cut off by ctx cancellation is deliberately NOT
// reported: a dying worker stays silent, the coordinator reaps it and
// requeues its leases — reporting a cancellation as failure would burn an
// attempt on a healthy item. t is item i of b.
func (w *Worker) runTask(ctx context.Context, b *campaign.Batch, i int, t Task) {
	if w.testOnTaskStart != nil {
		w.testOnTaskStart(t)
	}
	if w.testExecuteErr != nil {
		if err := w.testExecuteErr(t); err != nil {
			w.report(ctx, Completion{ID: t.ID, Attempt: t.Attempt, Error: err.Error()})
			return
		}
	}
	st, executed, err := b.Simulate(ctx, i)
	if err != nil && isCtxErr(err) {
		return // dying quietly; the reap requeues the item
	}
	comp := Completion{ID: t.ID, Attempt: t.Attempt, Executed: executed, Stats: st}
	if err != nil {
		comp.Error = err.Error()
		comp.Stats = nil
	}
	w.report(ctx, comp)
}

// report posts one completion, retrying a transport failure with capped
// backoff until the coordinator answers or ctx ends: the worker stays
// alive meanwhile, so its lease on the task stays too, and a dropped
// completion would leave the item leased for good. Any answer, a
// rejection as stale included, ends the retries.
func (w *Worker) report(ctx context.Context, comp Completion) {
	id := w.ID()
	var retry backoff
	for {
		var resp CompleteResponse
		code, err := w.postJSON(ctx, "/v1/workers/"+id+"/complete", comp, &resp)
		switch {
		case code == 0: // no answer
			d := retry.next()
			w.logf("complete %s: %v (retrying in %s)", comp.ID, err, d)
			if sleepCtx(ctx, d) {
				continue
			}
		case err != nil:
			w.logf("complete %s: %v", comp.ID, err)
		case code != http.StatusOK:
			w.logf("complete %s: status %d", comp.ID, code)
		case !resp.Accepted:
			w.logf("complete %s attempt %d: rejected as stale/duplicate", comp.ID, comp.Attempt)
		}
		return
	}
}

// postJSON sends body (nil = empty) to the coordinator path and decodes a
// JSON response into out (ignored when out is nil or the body is empty).
// Non-2xx statuses are returned, not errors — callers branch on the code.
func (w *Worker) postJSON(ctx context.Context, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(b) > 0 && resp.StatusCode < 300 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decode response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// sleepCtx sleeps d or until ctx expires; false means ctx expired.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
