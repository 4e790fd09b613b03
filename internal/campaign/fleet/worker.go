package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"clustersmt/internal/campaign/store"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
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
	// LocalStore, when set, is a worker-local persistent layer (typically
	// *store.Store) between the in-memory cache and the coordinator's
	// remote store.
	LocalStore experiments.ResultStore
	// Client overrides the HTTP client (nil = http.DefaultClient).
	Client *http.Client
	// Verbose, when set, receives one line per worker lifecycle event.
	Verbose func(string)
}

// Worker is the fleet's data plane: it registers with a coordinator,
// heartbeats in the background, pulls task batches and simulates them on a
// local experiments.Runner whose store is layered memory → (optional
// local disk) → coordinator remote store — so a result any fleet member
// already produced is a store hit, not a re-execution.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	remote *store.Remote

	mu        sync.Mutex
	id        string
	leaseTTL  time.Duration
	heartbeat time.Duration
	runners   map[int]*experiments.Runner

	// Test seams (package-internal): observe task pickup and inject
	// per-task execution failures without touching the simulation path.
	testOnTaskStart func(Task)
	testExecuteErr  func(Task) error
}

// NewWorker validates cfg and returns an unstarted worker; Run drives it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	remote, err := store.NewRemote(cfg.Coordinator, cfg.Client)
	if err != nil {
		return nil, err
	}
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
		cfg:     cfg,
		client:  client,
		remote:  remote,
		runners: make(map[int]*experiments.Runner),
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
			w.leaseTTL = time.Duration(resp.LeaseTTLMs) * time.Millisecond
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

// heartbeatLoop renews the worker's registration and leases on the
// coordinator-advertised cadence. A 404 means the coordinator reaped us
// (our leases are already requeued): re-register for a fresh identity.
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

// runnerFor returns the worker's shared runner for trace length tl. The
// store layering is the fleet's dedup path: memory first, then the
// optional local disk store, then the coordinator over HTTP — and a
// simulation's Put writes through all of them, replicating fresh results
// fleet-wide.
func (w *Worker) runnerFor(tl int) *experiments.Runner {
	w.mu.Lock()
	defer w.mu.Unlock()
	if r, ok := w.runners[tl]; ok {
		return r
	}
	r := experiments.NewRunner(tl)
	r.Workers = w.cfg.Parallel
	layers := []experiments.ResultStore{experiments.NewMemStore()}
	if w.cfg.LocalStore != nil {
		layers = append(layers, w.cfg.LocalStore)
	}
	layers = append(layers, w.remote)
	r.Store = experiments.Layered(layers...)
	w.runners[tl] = r
	return r
}

// execute simulates a leased batch and reports completions. Tasks whose
// execution was cut off by ctx cancellation are deliberately NOT reported:
// a dying worker stays silent, the lease expires, and the coordinator
// requeues — reporting a cancellation as failure would burn an attempt on
// a healthy item.
func (w *Worker) execute(ctx context.Context, tasks []Task) {
	byLen := make(map[int][]Task)
	for _, t := range tasks {
		if w.testOnTaskStart != nil {
			w.testOnTaskStart(t)
		}
		if w.testExecuteErr != nil {
			if err := w.testExecuteErr(t); err != nil {
				w.report(ctx, Completion{ID: t.ID, Attempt: t.Attempt, Error: err.Error()})
				continue
			}
		}
		byLen[t.TraceLen] = append(byLen[t.TraceLen], t)
	}
	for tl, group := range byLen {
		r := w.runnerFor(tl)
		specs := make([]experiments.Spec, len(group))
		for i, t := range group {
			specs[i] = t.Spec
		}
		p := &experiments.Progress{
			Finished: func(i int, st *metrics.Stats, executed bool, err error) {
				t := group[i]
				if err != nil && isCtxErr(err) {
					return // dying quietly; the lease requeues the item
				}
				comp := Completion{ID: t.ID, Attempt: t.Attempt, Key: r.CacheKey(t.Spec), Executed: executed, Stats: st}
				if err != nil {
					comp.Error = err.Error()
					comp.Stats = nil
				}
				w.report(ctx, comp)
			},
		}
		// Per-item errors already landed in the completions via the
		// callback; a context cancellation is the loop condition's to see.
		_, _ = r.RunAllCtx(ctx, specs, p)
	}
}

// report posts one completion; a transport failure is logged and dropped
// (the lease expiry path re-runs the item — at the cost of an attempt,
// which is why transient coordinator outages should be shorter than
// MaxAttempts × LeaseTTL).
func (w *Worker) report(ctx context.Context, comp Completion) {
	id := w.ID()
	var resp CompleteResponse
	code, err := w.postJSON(ctx, "/v1/workers/"+id+"/complete", comp, &resp)
	switch {
	case err != nil:
		w.logf("complete %s: %v", comp.ID, err)
	case code != http.StatusOK:
		w.logf("complete %s: status %d", comp.ID, code)
	case !resp.Accepted:
		w.logf("complete %s attempt %d: rejected as stale/duplicate", comp.ID, comp.Attempt)
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
	base := strings.TrimRight(w.cfg.Coordinator, "/")
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, rd)
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
