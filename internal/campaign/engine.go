package campaign

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// Engine executes expanded campaigns: one pool of workers answers every
// item through the experiments runner for the item's trace length, and the
// runners all share one persistent store layer. It is the only code that
// turns a manifest into a ResultSet: in fleet mode it runs the same way,
// with Exec sending each simulation its store cannot answer to the fleet.
//
// An Engine may be shared: runners (and with them the in-memory result
// layer and the singleflight tables) persist across RunPlan calls, so
// concurrent campaigns submitted to one Engine — the service daemon's
// configuration — deduplicate overlapping specs exactly once even while
// both are in flight. Local simulations of every campaign share one gate of
// Workers slots. A workload's memoized traces live only while a pending
// item of some running plan or batch needs them (see Batch). The engine
// owns the storage its simulations reuse: every runner, whatever its trace
// length, builds on the machines and generates into the trace buffers of
// the engine's one experiments.Storage, and Recycle keeps it.
type Engine struct {
	// Store is the persistent result layer (typically *store.Store). Nil
	// runs the campaign memory-only.
	Store experiments.ResultStore
	// Resume (the default in expdriver) reuses results already in Store;
	// when false, entries stored before the engine ran are ignored and
	// overwritten, so each of its simulations re-executes — once: campaigns
	// on one engine still share the results it computed itself.
	Resume bool
	// Workers bounds local simulation parallelism across every campaign the
	// engine runs (0 = NumCPU).
	Workers int
	// Exec, when set, runs every simulation the store cannot answer in
	// place of the local simulator (see experiments.Runner.Exec). The
	// service sets it to the fleet coordinator's Execute in fleet mode.
	Exec func(ctx context.Context, traceLen int, s experiments.Spec) (*metrics.Stats, bool, error)
	// Verbose, when set, receives one line per completed simulation.
	Verbose func(string)
	// SampleInterval, when non-zero, enables per-item time-series sampling:
	// executed items collect one metrics.Sample per interval cycles (see
	// core.Processor.SetSampler for rounding), attached to the item's
	// Result and forwarded live through the progress callback. Store hits
	// carry no samples — only actual simulations produce time series.
	SampleInterval int64

	mu      sync.Mutex
	gate    chan struct{} // Workers slots, shared by every runner
	mem     *experiments.MemStore
	storage *experiments.Storage // shared by every runner, kept by Recycle
	runners map[int]*experiments.Runner
	putErrs atomic.Int64 // fresh results the store refused

	pinMu sync.Mutex
	pins  map[pinKey]*tracePin // pending items per runner and workload, across running plans and batches
}

// pinKey names the traces one workload needs on one runner. A plan's
// workloads, and so a fleet worker's tasks, are pool workloads and their
// repetitions, whose names identify their content.
type pinKey struct {
	r        *experiments.Runner
	workload string
}

// tracePin counts the pending items, over every plan and batch the engine
// is running, that need one workload's traces on one runner.
type tracePin struct {
	key pinKey
	n   int
}

// ItemEvent reports one planned item's lifecycle during RunPlan.
type ItemEvent struct {
	// Index addresses the item in the expansion (and the eventual
	// ResultSet.Results slice).
	Index int
	// Started marks the pickup event; the completion event carries Result.
	Started bool
	// Result is the completed item's outcome (nil on Started events). It
	// points into the ResultSet under construction and must be treated as
	// read-only.
	Result *Result
	// Stats is the completed item's statistics, whether simulated or
	// recalled (nil on failure and on Started and Sample events). It is
	// shared with the result store and must be treated as read-only.
	Stats *metrics.Stats
	// Sample, when non-nil, is one time-series observation window from the
	// item's running simulation (Engine.SampleInterval must be set). Sample
	// events fire between Started and the completion event, from the
	// simulating goroutine; the pointed-to value is never mutated after the
	// callback.
	Sample *metrics.Sample
}

// Result is one item's outcome, machine-readable for the JSON/CSV emitters
// and for Diff.
type Result struct {
	Label    string `json:"label"`
	Workload string `json:"workload"`
	// Scheme is the canonical scheme reference (a paper name, or the
	// normalized component grammar for composed specs); SchemeSpec echoes
	// the full sel/iq/rf composition for both, so result rows are
	// self-describing without the named registry at hand.
	Scheme       string    `json:"scheme"`
	SchemeSpec   string    `json:"scheme_spec,omitempty"`
	IQSize       int       `json:"iq_size"`
	RegsPerClust int       `json:"regs_per_cluster"`
	ROBPerThread int       `json:"rob_per_thread"`
	TraceLen     int       `json:"trace_len"`
	Rep          int       `json:"rep"`
	SingleThread int       `json:"single_thread"`
	NumClusters  int       `json:"num_clusters"`
	Links        int       `json:"links"`
	LinkLatency  int       `json:"link_latency"`
	MemLatency   int       `json:"mem_latency"`
	Key          string    `json:"key"`
	Cached       bool      `json:"cached"`
	IPC          float64   `json:"ipc"`
	CopiesPerRet float64   `json:"copies_per_retired"`
	IQStallsRet  float64   `json:"iq_stalls_per_retired"`
	ThreadIPC    []float64 `json:"thread_ipc,omitempty"`
	Fairness     float64   `json:"fairness,omitempty"`
	Error        string    `json:"error,omitempty"`
	// Samples is the item's simulation time series (one entry per closed
	// observation window), present only when the engine ran with
	// SampleInterval set AND this item actually executed: cached items
	// recall summary statistics, not time series.
	Samples []metrics.Sample `json:"samples,omitempty"`
}

// ResultSet is a completed campaign: every expanded item in expansion
// order, plus the execution tally. It is the diffable artifact campaigns
// exchange across branches.
type ResultSet struct {
	Campaign  string   `json:"campaign"`
	Version   string   `json:"version"`
	Total     int      `json:"total"`
	Executed  int      `json:"executed"`
	StoreHits int      `json:"store_hits"`
	Failed    int      `json:"failed"`
	Results   []Result `json:"results"`
}

// runnerFor returns the engine's shared runner for trace length tl,
// creating it on first use: a fresh-layer MemStore in front of the
// persistent store, sharing the engine's gate, Storage and Exec. With
// Resume disabled the persistent layer is write-only, so results stored
// before the engine started are ignored and re-executed while fresh ones
// still land on disk.
func (e *Engine) runnerFor(tl int) *experiments.Runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gate == nil {
		e.gate = make(chan struct{}, e.slots())
		e.storage = &experiments.Storage{}
	}
	r, ok := e.runners[tl]
	if !ok {
		if e.mem == nil {
			e.mem = experiments.NewMemStore()
		}
		r = experiments.NewRunner(tl)
		r.Verbose = e.Verbose
		r.Gate = e.gate
		r.Storage = e.storage
		r.Exec = e.Exec
		r.SampleInterval = e.SampleInterval
		layers := []experiments.ResultStore{e.mem}
		if e.Store != nil && e.Resume {
			layers = append(layers, e.Store)
		} else if e.Store != nil {
			layers = append(layers, experiments.WriteOnly(e.Store))
		}
		r.Store = experiments.Layered(layers...)
		if e.runners == nil {
			e.runners = make(map[int]*experiments.Runner)
		}
		e.runners[tl] = r
	}
	return r
}

// slots is the size of the engine's gate: Workers, or NumCPU when unset.
func (e *Engine) slots() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.NumCPU()
}

// Batch is a set of items the engine answers together: a plan's (RunPlan
// runs every plan as one) or a fleet worker's leased tasks. Items may be
// answered concurrently, each at most once; an item's pin is counted off
// when it is answered or when the batch is closed.
type Batch struct {
	e       *Engine
	items   []Item
	runners map[int]*experiments.Runner // by trace length, resolved when the batch was made
	pins    []*tracePin                 // by item; nil once counted off, under e.pinMu
}

// Batch pins items on the engine and returns them as a batch. A workload's
// traces on the runner for a trace length stay memoized while an item
// needing them is pending, over every batch and plan the engine runs, and
// the last one to be counted off drops them, handing their buffers to the
// engine's Storage. The batch resolves its runners now and keeps them to
// the end, even across a Recycle. Answer items with Simulate; Close counts
// off the ones never answered.
func (e *Engine) Batch(items []Item) *Batch {
	b := &Batch{e: e, items: items, runners: map[int]*experiments.Runner{}}
	for _, it := range items {
		if b.runners[it.TraceLen] == nil {
			b.runners[it.TraceLen] = e.runnerFor(it.TraceLen)
		}
	}
	b.pins = e.pin(items, b.runners)
	return b
}

// Simulate answers item i the way RunPlan answers a plan item and counts
// it off. It reports whether this call simulated.
func (b *Batch) Simulate(ctx context.Context, i int) (*metrics.Stats, bool, error) {
	st, _, executed, err := b.do(ctx, i, nil)
	return st, executed, err
}

// do answers item i on the runner for its trace length (see
// experiments.Runner.Do), counts a fresh result the store refused and
// counts the item off.
func (b *Batch) do(ctx context.Context, i int, onSample func(metrics.Sample)) (st *metrics.Stats, key string, executed bool, err error) {
	it := b.items[i]
	st, key, executed, putErr, err := b.runners[it.TraceLen].Do(ctx, it.Spec, onSample)
	if putErr != nil {
		b.e.putErrs.Add(1)
	}
	b.unpin(i)
	return st, key, executed, err
}

// Close counts off every item of b not answered yet. Call it once no
// Simulate on b is running; a worker closes each leased batch, so a task
// that never reached the engine pins nothing.
func (b *Batch) Close() {
	for i := range b.items {
		b.unpin(i)
	}
}

// Inflight returns how many local simulations hold a slot of the engine's
// gate right now.
func (e *Engine) Inflight() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.gate)
}

// StorePutErrors returns how many fresh results the store refused over
// the engine's lifetime, Recycle calls included. Each such item still
// succeeded.
func (e *Engine) StorePutErrors() int64 { return e.putErrs.Load() }

// Recycle drops the engine's cached runners, except those for the trace
// lengths in keep, and its shared in-memory result layer (kept runners
// keep theirs), releasing the key encodings and Stats they hold (a
// workload's traces are gone once no pending item needs them). It keeps
// the engine's Storage: the spare machines and free trace buffers serve
// runners of any trace length, and they never outnumber the machines and
// traces the engine has had in use at once. Live campaigns and batches are
// unaffected — each resolved its runners when it started and keeps them
// to the end; only future sharing starts cold. The service daemon calls
// Recycle() whenever it goes idle, and a fleet worker calls it with each
// batch's trace lengths, so memory is bounded by one busy period or one
// batch: with a persistent store underneath, the only cost is a store read
// per recalled key.
func (e *Engine) Recycle(keep ...int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	maps.DeleteFunc(e.runners, func(tl int, _ *experiments.Runner) bool {
		return !slices.Contains(keep, tl)
	})
	e.mem = nil
}

// RunCtx expands m into a plan and runs it (see RunPlan). The only error
// is an invalid manifest.
func (e *Engine) RunCtx(ctx context.Context, m *Manifest, progress func(ItemEvent)) (*ResultSet, error) {
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	return e.RunPlan(ctx, plan, progress), nil
}

// RunPlan executes every item of plan, recalling whatever the store
// already holds. Simulation failures do not abort the campaign: failed
// items carry their error and the set reports the partial tally, so an
// interrupted or partly broken campaign still lands its completed results
// (and a later -resume run executes only what is missing). Cancelling the
// context stops in-flight simulations mid-run and fails the not-yet-started
// items with the context's error. The progress callback (optional) is
// invoked from worker goroutines and must be safe for concurrent use.
func (e *Engine) RunPlan(ctx context.Context, plan *Plan, progress func(ItemEvent)) *ResultSet {
	rs := plan.NewResultSet(core.SimVersion)
	c := &campaignRun{e: e, plan: plan, rs: rs, batch: e.Batch(plan.Items), progress: progress}

	// One pool over every item, whatever its trace length. The engine
	// shares runners (and their in-memory layer) across campaigns, so
	// concurrent submissions of overlapping manifests singleflight into one
	// execution per spec. A local simulation holds a slot of the engine's
	// gate, so more workers than slots would only queue; an Exec'd item
	// uses no local CPU, so the fleet sees the whole campaign at once.
	workers := len(plan.Items)
	if e.Exec == nil {
		workers = min(workers, e.slots())
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// The item index arrives over the work channel, so detcheck
				// sees goroutine send order flowing into the simulation —
				// but each item's stats depend only on plan.Items[i], and
				// its row lands deterministically in rs.Results[i].
				//smtlint:allow detcheck: channel-delivered index selects which item runs, not what it computes; its row re-keys into rs.Results[i]
				c.item(ctx, i)
			}
		}()
	}
	for i := range plan.Items {
		work <- i
	}
	close(work)
	wg.Wait()

	plan.Finalize(rs)
	return rs
}

// pin adds items to the engine's pending counts and returns each item's
// pin. Plans are workload-major, so it looks up one pin per run of items
// on one workload, not one per item.
func (e *Engine) pin(items []Item, runners map[int]*experiments.Runner) []*tracePin {
	pins := make([]*tracePin, len(items))
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	if e.pins == nil {
		e.pins = make(map[pinKey]*tracePin)
	}
	var p *tracePin
	for i, it := range items {
		if i == 0 || it.TraceLen != items[i-1].TraceLen || it.Spec.Workload.Name != items[i-1].Spec.Workload.Name {
			k := pinKey{r: runners[it.TraceLen], workload: it.Spec.Workload.Name}
			if p = e.pins[k]; p == nil {
				p = &tracePin{key: k}
				e.pins[k] = p
			}
		}
		p.n++
		pins[i] = p
	}
	return pins
}

// unpin counts item i off its pin unless it already is. The last pending
// item of a workload on a runner, over every running plan and batch, drops
// the workload's traces there.
func (b *Batch) unpin(i int) {
	e := b.e
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	p := b.pins[i]
	if p == nil {
		return
	}
	b.pins[i] = nil
	if p.n--; p.n == 0 {
		delete(e.pins, p.key)
		p.key.r.DropTraces(b.items[i].Spec.Workload)
	}
}

// campaignRun is one RunPlan call's state, shared by its pool's workers.
type campaignRun struct {
	e        *Engine
	plan     *Plan
	rs       *ResultSet
	batch    *Batch // the plan's items
	progress func(ItemEvent)
}

// item answers plan item i and fills its result slot, reporting its
// lifecycle to the progress callback. Only this call simulates item i, so
// its time series needs no lock.
func (c *campaignRun) item(ctx context.Context, i int) {
	if c.progress != nil {
		c.progress(ItemEvent{Index: i, Started: true})
	}
	var samples []metrics.Sample
	var onSample func(metrics.Sample)
	if c.e.SampleInterval > 0 {
		onSample = func(s metrics.Sample) {
			samples = append(samples, s)
			if c.progress != nil {
				c.progress(ItemEvent{Index: i, Sample: &s})
			}
		}
	}
	st, key, executed, err := c.batch.do(ctx, i, onSample)
	res := c.plan.Result(i, key, st, executed, err)
	if executed {
		res.Samples = samples
	}
	c.rs.Results[i] = res
	if c.progress != nil {
		c.progress(ItemEvent{Index: i, Result: &c.rs.Results[i], Stats: st})
	}
}

// Err aggregates the set's per-item failures into one error (nil when the
// campaign fully succeeded).
func (rs *ResultSet) Err() error {
	var errs []error
	for _, r := range rs.Results {
		if r.Error != "" {
			errs = append(errs, fmt.Errorf("%s: %s", r.Label, r.Error))
		}
	}
	return errors.Join(errs...)
}
