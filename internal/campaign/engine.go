package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// Engine executes expanded campaigns on experiments runners, one per trace
// length, all sharing one persistent store layer.
//
// An Engine may be shared: runners (and with them the in-memory result
// layer, the singleflight tables and the trace memos) persist across RunCtx
// calls, so concurrent campaigns submitted to one Engine — the service
// daemon's configuration — deduplicate overlapping specs exactly once even
// while both are in flight.
//
// The Engine is the in-process execution strategy over a campaign Plan;
// the fleet coordinator (internal/campaign/fleet) is the distributed one.
// Both fill the Plan's ResultSet through the same assembly code, so a
// fleet run of a manifest is bit-for-bit comparable to a local run.
type Engine struct {
	// Store is the persistent result layer (typically *store.Store). Nil
	// runs the campaign memory-only.
	Store experiments.ResultStore
	// Resume (the default in expdriver) reuses results already in Store;
	// when false, existing entries are ignored and overwritten, forcing
	// every simulation to re-execute.
	Resume bool
	// Workers bounds per-campaign simulation parallelism (0 = NumCPU).
	Workers int
	// Gate, when non-nil, additionally bounds total simulation concurrency
	// across every campaign this engine runs (see experiments.Runner.Gate).
	// The service shares one gate across its job executors.
	Gate chan struct{}
	// Verbose, when set, receives one line per completed simulation.
	Verbose func(string)
	// SampleInterval, when non-zero, enables per-item time-series sampling:
	// executed items collect one metrics.Sample per interval cycles (see
	// core.Processor.SetSampler for rounding), attached to the item's
	// Result and forwarded live through the progress callback. Store hits
	// carry no samples — only actual simulations produce time series.
	SampleInterval int64

	mu      sync.Mutex
	mem     *experiments.MemStore
	runners map[int]*experiments.Runner
	// Store put failures outlive the runners that count them: a runner's
	// count folds into putErrs once the engine neither caches it nor runs
	// a campaign on it.
	inUse   map[*experiments.Runner]int // campaigns running on each runner
	putErrs int64
}

// ItemEvent reports one expanded item's lifecycle during RunCtx.
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

// baselinePoint identifies one single-thread baseline coordinate. The
// machine shape participates: a baseline on a 1-cluster machine must not
// answer for an SMT run on 4 clusters.
type baselinePoint struct {
	base                 string
	rep, tl, iq, rf, rob int
	nc, lk, ll, ml       int
	thread               int
}

// pointOf projects an item onto its baseline coordinate for thread t.
func pointOf(it Item, t int) baselinePoint {
	return baselinePoint{
		base: it.Base, rep: it.Rep, tl: it.TraceLen,
		iq: it.Spec.IQSize, rf: it.Spec.RegsPerClust, rob: it.Spec.ROBPerThread,
		nc: it.Spec.NumClusters, lk: it.Spec.Links, ll: it.Spec.LinkLatency, ml: it.Spec.MemLatency,
		thread: t,
	}
}

// runnerFor returns the engine's shared runner for trace length tl,
// creating it on first use: a fresh-layer MemStore in front of the
// persistent store, sharing the engine's gate. With Resume disabled the
// runner is NOT cached and writes through a read-blind persistent layer, so
// every simulation re-executes while fresh results still land on disk.
// The caller hands the runner back with release when its campaign is done.
func (e *Engine) runnerFor(tl int) *experiments.Runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inUse == nil {
		e.inUse = make(map[*experiments.Runner]int)
	}
	if e.Resume {
		if r, ok := e.runners[tl]; ok {
			e.inUse[r]++
			return r
		}
	}
	if e.mem == nil {
		e.mem = experiments.NewMemStore()
	}
	r := experiments.NewRunner(tl)
	r.Workers = e.Workers
	r.Verbose = e.Verbose
	r.Gate = e.Gate
	r.SampleInterval = e.SampleInterval
	if e.Resume {
		layers := []experiments.ResultStore{e.mem}
		if e.Store != nil {
			layers = append(layers, e.Store)
		}
		r.Store = experiments.Layered(layers...)
		if e.runners == nil {
			e.runners = make(map[int]*experiments.Runner)
		}
		e.runners[tl] = r
	} else {
		layers := []experiments.ResultStore{experiments.NewMemStore()}
		if e.Store != nil {
			layers = append(layers, experiments.WriteOnly(e.Store))
		}
		r.Store = experiments.Layered(layers...)
	}
	e.inUse[r]++
	return r
}

// release ends one campaign's use of r.
func (e *Engine) release(r *experiments.Runner) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.inUse[r]--; e.inUse[r] > 0 {
		return
	}
	delete(e.inUse, r)
	if e.runners[r.TraceLen] != r {
		e.putErrs += r.StorePutErrors()
	}
}

// StorePutErrors returns how many fresh results the engine's runners
// failed to write into the store over the engine's lifetime, Recycle
// calls included. Each such item still succeeded.
func (e *Engine) StorePutErrors() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.putErrs
	for _, r := range e.runners {
		n += r.StorePutErrors()
	}
	for r := range e.inUse {
		if e.runners[r.TraceLen] != r {
			n += r.StorePutErrors()
		}
	}
	return n
}

// Recycle drops the engine's cached runners and shared in-memory result
// layer, releasing the trace memos and Stats they hold. Live campaigns are
// unaffected — they keep references to their runners, which stay valid;
// only future sharing starts cold. The service daemon calls this whenever
// it goes idle so a long-running process's memory is bounded by one busy
// period: with a persistent store underneath, the only cost is a disk read
// per recalled key.
func (e *Engine) Recycle() {
	e.mu.Lock()
	for _, r := range e.runners {
		if e.inUse[r] == 0 {
			e.putErrs += r.StorePutErrors()
		}
	}
	e.runners = nil
	e.mem = nil
	e.mu.Unlock()
}

// Run expands m and executes every item, recalling whatever the store
// already holds. Simulation failures do not abort the campaign: failed
// items carry their error and the set reports the partial tally, so an
// interrupted or partly broken campaign still lands its completed results
// (and a later -resume run executes only what is missing).
func (e *Engine) Run(m *Manifest) (*ResultSet, error) {
	return e.RunCtx(context.Background(), m, nil)
}

// RunCtx is Run with cooperative cancellation and optional per-item
// progress reporting. Cancelling the context stops in-flight simulations
// mid-run and fails the not-yet-started items with the context's error;
// completed items keep their results, so a cancelled campaign still returns
// the partial ResultSet. The progress callback (optional) is invoked from
// worker goroutines and must be safe for concurrent use.
func (e *Engine) RunCtx(ctx context.Context, m *Manifest, progress func(ItemEvent)) (*ResultSet, error) {
	plan, err := NewPlan(m)
	if err != nil {
		return nil, err
	}
	rs := plan.NewResultSet(core.SimVersion)

	// Per-item time series, collected outside the Result until the item
	// completes. Safe without a lock: exactly one worker simulates item i,
	// and its Sample callbacks happen-before its Finished callback on the
	// same goroutine.
	var samples [][]metrics.Sample
	if e.SampleInterval > 0 {
		samples = make([][]metrics.Sample, len(plan.Items))
	}

	// One runner per trace length; the engine shares runners (and their
	// in-memory layer) across campaigns, so concurrent submissions of
	// overlapping manifests singleflight into one execution per spec.
	for _, tl := range plan.TraceLens() {
		idxs := plan.Indices(tl)
		r := e.runnerFor(tl)
		specs := make([]experiments.Spec, len(idxs))
		for j, i := range idxs {
			specs[j] = plan.Items[i].Spec
		}
		p := &experiments.Progress{
			Finished: func(j int, st *metrics.Stats, executed bool, err error) {
				i := idxs[j]
				res := plan.Result(i, r.CacheKey(plan.Items[i].Spec), st, executed, err)
				if executed && samples != nil {
					res.Samples = samples[i]
				}
				rs.Results[i] = res
				if progress != nil {
					progress(ItemEvent{Index: i, Result: &rs.Results[i]})
				}
			},
		}
		if progress != nil {
			p.Started = func(j int) {
				progress(ItemEvent{Index: idxs[j], Started: true})
			}
		}
		if samples != nil {
			p.Sample = func(j int, s metrics.Sample) {
				i := idxs[j]
				samples[i] = append(samples[i], s)
				if progress != nil {
					progress(ItemEvent{Index: i, Sample: &s})
				}
			}
		}
		// Per-item errors already landed in the results via the callback;
		// the set reports Failed below.
		_, _ = r.RunAllCtx(ctx, specs, p)
		e.release(r)
	}

	plan.Finalize(rs)
	return rs, nil
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
