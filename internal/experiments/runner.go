// Package experiments defines one reproduction per paper figure/table
// (the index lives in DESIGN.md §4) on top of a memoizing, parallel
// simulation runner. Every figure is a pure function of the runner, so the
// expdriver binary, the test suite and the benchmark harness share runs.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"clustersmt/internal/core"
	"clustersmt/internal/isa"
	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// Spec identifies one simulation: a workload under a scheme on a machine
// configuration. SingleThread >= 0 runs that thread alone (the fairness
// baseline); -1 runs the full SMT workload.
//
// Scheme accepts anything policy.ParseSpec does: a named paper scheme
// ("cdprf") or a composed component spec ("sel=stall,iq=cssp,rf=cdprf").
// The content-addressed CacheKey hashes the canonical form, so spelling
// variants of one composition share stored results — and a composed spec
// that matches a named scheme recalls that scheme's pre-redesign entries.
//
// The machine-shape fields (NumClusters, Links, LinkLatency, MemLatency)
// sweep the back-end geometry; 0 inherits the runner's Shape default and
// ultimately the Table 1 value (2 clusters, 2 one-cycle links, 60-cycle
// memory). They feed Machine, so the content-addressed CacheKey
// distinguishes shapes automatically.
type Spec struct {
	Workload     workload.Workload
	Scheme       string
	IQSize       int
	RegsPerClust int // 0 = unbounded
	ROBPerThread int // 0 = unbounded
	SingleThread int // -1 = SMT
	NumClusters  int // 0 = shape/Table 1 default (2)
	Links        int // 0 = shape/Table 1 default (2)
	LinkLatency  int // cycles; 0 = shape/Table 1 default (1)
	MemLatency   int // cycles; 0 = shape/Table 1 default (60)
}

// key identifies a spec for the session-local memo and singleflight maps.
// The workload contributes a content digest, not just its name: a
// hand-built Workload reusing a pool name with different seeds or profiles
// must not collapse into the named workload's flight or recall its
// content-addressed key (the same aliasing rule traceKey enforces for
// trace memoization).
func (s Spec) key() string {
	return fmt.Sprintf("%s@%x|%s|iq%d|rf%d|rob%d|st%d|c%d|lk%d|ll%d|ml%d",
		s.Workload.Name, workloadDigest(s.Workload), s.Scheme,
		s.IQSize, s.RegsPerClust, s.ROBPerThread, s.SingleThread,
		s.NumClusters, s.Links, s.LinkLatency, s.MemLatency)
}

// workloadDigest hashes a workload's simulation-relevant content (seeds and
// thread profiles; the name is carried separately for readability).
func workloadDigest(w workload.Workload) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	for _, s := range w.Seeds {
		mix(s)
	}
	for _, p := range w.Threads {
		fp := profileFingerprint(p)
		for i := 0; i < len(fp); i += 8 {
			var v uint64
			for j := 0; j < 8; j++ {
				v = v<<8 | uint64(fp[i+j])
			}
			mix(v)
		}
	}
	return h
}

// MachineShape is a runner-level default machine geometry, applied to every
// spec field left zero. Zero fields fall through to the Table 1 defaults.
type MachineShape struct {
	NumClusters int
	Links       int
	LinkLatency int
	MemLatency  int
}

// Runner executes Specs with memoization and a bounded worker pool.
// It is safe for concurrent use.
//
// Two layers are shared across runs. Completed results land in a pluggable
// ResultStore under content-addressed keys (CacheKey), with singleflight
// in-flight tracking so concurrent requests for the same spec execute it
// exactly once; the default store is in-memory, and campaigns layer a disk
// store underneath for cross-process persistence. Materialized traces are
// memoized by (workload, thread, length): the ~100+ specs behind one figure
// differ in scheme and resource sizing but re-read the same uop streams,
// and a thread's trace is identical whether it runs alone (the fairness
// baseline) or inside the SMT pair, so generation cost is paid once per
// workload thread rather than once per spec. Traces are read-only to the
// core, which is what makes the sharing safe.
type Runner struct {
	// TraceLen is the per-thread trace length in uops; it also sets each
	// simulation's warm-up and cycle bound (see Machine).
	TraceLen int
	// Workers bounds simulation parallelism (default: NumCPU).
	Workers int
	// Verbose, when set, receives one line per completed run.
	Verbose func(string)
	// Store receives completed results and is consulted before executing.
	// Nil selects a private in-memory store on first use. Set it before the
	// first Run call; it must not change afterwards.
	Store ResultStore
	// Shape is the default machine geometry for specs that leave their
	// shape fields zero (expdriver's figure-mode -clusters/-links/
	// -link-latency/-mem-latency flags land here). The zero value is the
	// Table 1 machine. Set it before the first Run/CacheKey call.
	Shape MachineShape
	// Gate, when non-nil, is acquired around every actual simulation (not
	// store hits). Sharing one gate between runners bounds total simulation
	// concurrency across them — the campaign engine uses this so that
	// concurrent campaigns share one machine-wide worker budget instead of
	// each bringing its own Workers-sized pool. Nil means Workers alone
	// bounds parallelism.
	Gate chan struct{}
	// Exec, when non-nil, simulates every store miss in place of the local
	// simulator, under the spec's singleflight; the runner stores and
	// counts what it returns (executed = false: a store hit on Exec's
	// side). An Exec'd spec uses no local CPU, so the runner then takes no
	// Gate and puts every spec in flight at once. No samples are taken.
	Exec func(ctx context.Context, traceLen int, s Spec) (st *metrics.Stats, executed bool, err error)
	// SampleInterval is the time-series observation window in cycles for
	// runs requested with a Progress.Sample callback (see
	// core.Processor.SetSampler for rounding; <= 0 selects the core
	// default). Sampling is observational only and does not affect
	// CacheKey: a sampled and an unsampled run of one spec share a stored
	// result, which also means store hits and singleflight waiters receive
	// no samples — only the flight owner simulates, and only simulations
	// produce time series.
	SampleInterval int64

	once     sync.Once // guards init
	mu       sync.Mutex
	inflight map[string]*flight
	keys     map[string]keyEntry // by spec key

	// executed counts actual simulations (store hits excluded).
	executed atomic.Int64
	// putErrors counts fresh results the store failed to take.
	putErrors atomic.Int64

	traceMu sync.Mutex
	traces  map[traceKey]*traceEntry
}

// keyEntry is what a runner remembers about one spec key.
type keyEntry struct {
	ck string // content-addressed key (CacheKey)
	// stored marks that a flight for the spec has put its result in the
	// store, so a caller whose unlocked Get missed re-checks the store.
	stored bool
}

// flight tracks one in-progress execution so duplicate requests wait for it
// instead of re-running the spec.
type flight struct {
	done chan struct{}
	st   *metrics.Stats
	err  error
}

// traceKey identifies one thread's materialized trace. A trace is a pure
// function of (profile, seed, length); the workload name is deliberately
// NOT part of the key's identity contract — a hand-built Workload may reuse
// a pool name with different seeds or profiles, and keying on the name
// alone would silently hand it the wrong cached trace. The seed and a
// profile fingerprint make the key complete; the thread index only
// disambiguates identical (profile, seed) pairs within one workload, which
// would be the same trace anyway.
type traceKey struct {
	seed    uint64
	length  int
	profile [sha256.Size]byte
}

// profileFingerprint digests a trace profile for trace memoization and the
// session-local spec key. It writes every field in declaration order into
// a stack buffer (strings length-prefixed, floats as their IEEE bits) and
// hashes that; no persisted key depends on it. A field of a kind it cannot
// write is a programming error, caught by TestProfileFingerprintCoversEveryField.
func profileFingerprint(p trace.Profile) [sha256.Size]byte {
	var buf [256]byte
	b := buf[:0]
	v := reflect.ValueOf(&p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			b = binary.LittleEndian.AppendUint64(b, uint64(f.Len()))
			b = append(b, f.String()...)
		case reflect.Float32, reflect.Float64:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Float()))
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = binary.LittleEndian.AppendUint64(b, uint64(f.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			b = binary.LittleEndian.AppendUint64(b, f.Uint())
		default:
			panic(fmt.Sprintf("experiments: profileFingerprint cannot digest field %s of kind %s",
				v.Type().Field(i).Name, f.Kind()))
		}
	}
	return sha256.Sum256(b)
}

type traceEntry struct {
	once sync.Once
	uops []isa.Uop
}

// NewRunner returns a runner with the given per-thread trace length.
func NewRunner(traceLen int) *Runner {
	return &Runner{
		TraceLen: traceLen,
		Store:    NewMemStore(),
		inflight: make(map[string]*flight),
		keys:     make(map[string]keyEntry),
		traces:   make(map[traceKey]*traceEntry),
	}
}

// init fills in the store and session maps a struct-literal Runner leaves
// nil. After it returns, Store and the map fields are never reassigned, so
// reading Store needs no lock.
func (r *Runner) init() {
	r.once.Do(func() {
		if r.Store == nil {
			r.Store = NewMemStore()
		}
		if r.inflight == nil {
			r.inflight = make(map[string]*flight)
			r.keys = make(map[string]keyEntry)
			r.traces = make(map[traceKey]*traceEntry)
		}
	})
}

// Executed returns the number of simulations this runner actually ran
// (store and singleflight hits excluded).
func (r *Runner) Executed() int64 { return r.executed.Load() }

// StorePutErrors returns the number of fresh results the store failed to
// take. Each such run still succeeds; only its persistence was lost.
func (r *Runner) StorePutErrors() int64 { return r.putErrors.Load() }

// traceFor returns thread i's materialized trace for w, generating it at
// most once per (profile, seed, length) for the runner's lifetime. The
// returned slice is shared; callers must treat it as immutable.
func (r *Runner) traceFor(w workload.Workload, i int) []isa.Uop {
	r.init()
	k := traceKey{seed: w.Seeds[i], length: r.TraceLen, profile: profileFingerprint(w.Threads[i])}
	r.traceMu.Lock()
	e := r.traces[k]
	if e == nil {
		e = &traceEntry{}
		r.traces[k] = e
	}
	r.traceMu.Unlock()
	e.once.Do(func() {
		g := trace.NewGenerator(w.Threads[i], w.Seeds[i])
		e.uops = g.Generate(r.TraceLen)
	})
	return e.uops
}

// Programs returns the thread programs spec s simulates at traceLen uops
// per thread: every workload thread, or only s.SingleThread. Each thread's
// trace is synthesized from its profile and pool seed, and its wrong-path
// stream from the same seed xored with a constant, so the two streams
// differ. Together with Machine it is the one way a spec becomes a
// simulation; Runner uses the same builder over its memoized traces.
func Programs(s Spec, traceLen int) []core.ThreadProgram {
	w := s.Workload
	return buildPrograms(s, func(i int) []isa.Uop {
		return trace.NewGenerator(w.Threads[i], w.Seeds[i]).Generate(traceLen)
	})
}

// buildPrograms is Programs over a caller-supplied trace source: traceOf(i)
// returns thread i's trace.
func buildPrograms(s Spec, traceOf func(i int) []isa.Uop) []core.ThreadProgram {
	w := s.Workload
	var progs []core.ThreadProgram
	for i, prof := range w.Threads {
		if s.SingleThread >= 0 && i != s.SingleThread {
			continue
		}
		progs = append(progs, core.ThreadProgram{
			Trace:   traceOf(i),
			Profile: prof,
			Seed:    w.Seeds[i] ^ 0xabcdef,
		})
	}
	return progs
}

// Machine returns the machine spec s runs on at traceLen uops per thread:
// the Table 1 configuration resized by s's IQ, register and ROB fields and
// reshaped by its nonzero shape fields. Statistics start after a warm-up
// of a fifth of the trace, and the run is bounded at 40 cycles per uop,
// far above any healthy run (see Simulate). CacheKey hashes this config,
// so every simulated outcome is a function of what Machine returns.
func Machine(s Spec, traceLen int) core.Config {
	n := len(s.Workload.Threads)
	if s.SingleThread >= 0 {
		n = 1
	}
	cfg := core.DefaultConfig(n)
	cfg.IQSize = s.IQSize
	cfg.IntRegsPerCluster = s.RegsPerClust
	cfg.FpRegsPerCluster = s.RegsPerClust
	cfg.ROBPerThread = s.ROBPerThread
	cfg.MaxCycles = int64(traceLen) * 40
	cfg.WarmupUops = uint64(traceLen / 5)
	if s.NumClusters > 0 {
		cfg.NumClusters = s.NumClusters
	}
	if s.Links > 0 {
		cfg.Net.Links = s.Links
	}
	if s.LinkLatency > 0 {
		cfg.Net.Latency = s.LinkLatency
	}
	if s.MemLatency > 0 {
		cfg.Cache.MemLatency = s.MemLatency
	}
	return cfg
}

// ErrCycleBound marks a simulation that reached its machine's cycle bound
// before any thread (or, with RunToCompletion, every thread) finished its
// trace: a wedged machine. Its statistics describe the wedge, not the
// workload, so they are neither reported nor stored.
var ErrCycleBound = errors.New("simulation hit its cycle bound")

// Simulate runs p until its termination condition holds and returns the
// statistics. A cancelled context stops the run with the context's error;
// a run that stops at the cycle bound instead fails with ErrCycleBound.
func Simulate(ctx context.Context, p *core.Processor) (*metrics.Stats, error) {
	st, err := p.RunCtx(ctx)
	if err != nil {
		return nil, err
	}
	if !p.Done() {
		return nil, fmt.Errorf("%w after %d cycles", ErrCycleBound, p.Now())
	}
	return st, nil
}

// programs is Programs over the runner's memoized traces.
func (r *Runner) programs(s Spec) []core.ThreadProgram {
	return buildPrograms(s, func(i int) []isa.Uop { return r.traceFor(s.Workload, i) })
}

// config returns the machine the runner builds for s: Machine with the
// runner's Shape filling the shape fields s leaves zero. A fully default
// shape therefore produces a byte-identical canonical config (and cache
// key) to the pre-shape-axis runner.
func (r *Runner) config(s Spec) core.Config {
	if s.NumClusters == 0 {
		s.NumClusters = r.Shape.NumClusters
	}
	if s.Links == 0 {
		s.Links = r.Shape.Links
	}
	if s.LinkLatency == 0 {
		s.LinkLatency = r.Shape.LinkLatency
	}
	if s.MemLatency == 0 {
		s.MemLatency = r.Shape.MemLatency
	}
	return Machine(s, r.TraceLen)
}

// specFingerprint is everything that determines a spec's simulated outcome:
// the simulator revision, the canonicalized machine configuration and the
// complete workload definition (profiles and seeds — the trace streams are
// a pure function of these plus the length, which the config's WarmupUops
// does not capture on its own).
type specFingerprint struct {
	Version      string            `json:"version"`
	Scheme       string            `json:"scheme"`
	SingleThread int               `json:"single_thread"`
	TraceLen     int               `json:"trace_len"`
	Workload     workload.Workload `json:"workload"`
	Config       json.RawMessage   `json:"config"`
}

// CacheKey returns the content-addressed result key for s under this
// runner's settings: the hex SHA-256 of the spec fingerprint. Equal keys
// mean equal simulated outcomes across processes and branches (for one
// core.SimVersion), which is what lets a disk store answer for a re-run.
func (r *Runner) CacheKey(s Spec) string { return r.cacheKey(s, s.key()) }

// cacheKey is CacheKey for a caller that already holds k = s.key().
func (r *Runner) cacheKey(s Spec, k string) string {
	r.init()
	r.mu.Lock()
	e, ok := r.keys[k]
	r.mu.Unlock()
	if ok {
		return e.ck
	}
	ck := r.computeKey(s, k)
	r.mu.Lock()
	if _, ok := r.keys[k]; !ok { // an owner may have marked it stored meanwhile
		r.keys[k] = keyEntry{ck: ck}
	}
	r.mu.Unlock()
	return ck
}

// canonicalScheme reduces a scheme reference to its canonical spelling for
// the content-addressed fingerprint; unparseable strings pass through (the
// execution path reports the error, and the raw string cannot collide with
// a canonical one in the store because it never produces results).
func canonicalScheme(s string) string {
	if c, err := policy.CanonicalScheme(s); err == nil {
		return c
	}
	return s
}

func (r *Runner) computeKey(s Spec, k string) string {
	cb, err := r.config(s).Canonical()
	if err != nil {
		return "spec:" + k // unhashable: session-local key, never persisted as content
	}
	b, err := json.Marshal(specFingerprint{
		Version:      core.SimVersion,
		Scheme:       canonicalScheme(s.Scheme),
		SingleThread: s.SingleThread,
		TraceLen:     r.TraceLen,
		Workload:     s.Workload,
		Config:       cb,
	})
	if err != nil {
		return "spec:" + k
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// execute runs one spec to completion (uncached) on the local simulator. A
// context cancellation mid-simulation, or a run stopped at its cycle bound
// (ErrCycleBound), discards the partial run: it is not counted as executed
// and never reaches the store. A non-nil onSample
// attaches a time-series sampler for the duration of the run (see
// SampleInterval).
func (r *Runner) execute(ctx context.Context, s Spec, onSample func(metrics.Sample)) (*metrics.Stats, error) {
	p, err := core.NewScheme(r.config(s), s.Scheme, r.programs(s))
	if err != nil {
		return nil, err
	}
	if onSample != nil {
		p.SetSampler(r.SampleInterval, onSample)
	}
	return Simulate(ctx, p)
}

// Run executes (or recalls) one spec. Concurrent calls for the same spec
// share a single execution; completed results are recalled from the store.
func (r *Runner) Run(s Spec) (*metrics.Stats, error) {
	st, _, err := r.run(context.Background(), s, nil)
	return st, err
}

// RunCtx is Run with cooperative cancellation: a cancelled context stops
// the simulation mid-run (the partial result is discarded, not stored) and
// returns the context's error.
func (r *Runner) RunCtx(ctx context.Context, s Spec) (*metrics.Stats, error) {
	st, _, err := r.run(ctx, s, nil)
	return st, err
}

// run is the shared execution core. The executed return reports whether
// THIS call ran the simulation: false for store hits and for singleflight
// waiters (the flight owner reports true). Summing executed across
// arbitrarily many concurrent callers therefore counts each distinct spec
// exactly once — the property the campaign engine's Executed tally and the
// service's cross-job deduplication test rely on.
//
// A cancellation error from the flight owner does NOT propagate to
// waiters whose own context is still live: on a shared engine the owner
// belongs to a different campaign, and its DELETE must not fail
// overlapping items of uncancelled jobs — the waiter retries (typically
// becoming the new owner) instead.
func (r *Runner) run(ctx context.Context, s Spec, onSample func(metrics.Sample)) (st *metrics.Stats, executed bool, err error) {
	for {
		st, executed, err, retry := r.runOnce(ctx, s, onSample)
		if !retry {
			return st, executed, err
		}
	}
}

// runOnce answers s once: from the store, by waiting on another caller's
// flight, or by simulating as the flight owner. Store hits are read without
// r.mu, so concurrent hits proceed in parallel. A miss takes r.mu and joins
// an existing flight; failing that, it re-checks the store before it
// registers its own flight if an owner has stored the spec's result since.
// An owner Puts its result before it marks the key stored and deletes its
// flight, both under r.mu, so a spec that finished between the unlocked Get
// and the lock is found by the re-check and never runs twice, while a
// plain miss still costs one Get. retry reports an owner cancellation the
// caller should not inherit (see run).
func (r *Runner) runOnce(ctx context.Context, s Spec, onSample func(metrics.Sample)) (st *metrics.Stats, executed bool, err error, retry bool) {
	if err := ctx.Err(); err != nil {
		return nil, false, err, false
	}
	r.init()
	store := r.Store
	k := s.key()
	ck := r.cacheKey(s, k)
	if st, ok, _ := store.Get(ck); ok {
		return st, false, nil, false
	}
	r.mu.Lock()
	if f, ok := r.inflight[k]; ok {
		r.mu.Unlock()
		select {
		case <-f.done:
			if ctxErr(f.err) && ctx.Err() == nil {
				return nil, false, nil, true // owner's job canceled, not ours
			}
			return f.st, false, f.err, false
		case <-ctx.Done():
			return nil, false, ctx.Err(), false
		}
	}
	if r.keys[k].stored {
		if st, ok, _ := store.Get(ck); ok {
			r.mu.Unlock()
			return st, false, nil, false
		}
	}
	f := &flight{done: make(chan struct{})}
	r.inflight[k] = f
	r.mu.Unlock()

	finish := func(stored bool) {
		r.mu.Lock()
		if stored {
			r.keys[k] = keyEntry{ck: ck, stored: true}
		}
		delete(r.inflight, k)
		r.mu.Unlock()
		close(f.done)
	}

	if r.Gate != nil && r.Exec == nil {
		select {
		case r.Gate <- struct{}{}:
			defer func() { <-r.Gate }()
		case <-ctx.Done():
			f.err = ctx.Err()
			finish(false)
			return nil, false, f.err, false
		}
	}

	if r.Exec != nil {
		f.st, executed, f.err = r.Exec(ctx, r.TraceLen, s)
	} else {
		f.st, f.err = r.execute(ctx, s, onSample)
		executed = f.err == nil
	}
	if executed {
		r.executed.Add(1)
	}

	var putErr error
	if f.err == nil {
		if putErr = store.Put(ck, f.st); putErr != nil {
			r.putErrors.Add(1)
		}
	}
	finish(f.err == nil && putErr == nil)

	if r.Verbose != nil {
		if f.err == nil {
			r.Verbose(fmt.Sprintf("%-60s ipc=%.3f", k, f.st.IPC()))
		}
		if putErr != nil {
			r.Verbose(fmt.Sprintf("%-60s store put: %v", k, putErr))
		}
	}
	return f.st, executed, f.err, false
}

// ctxErr reports whether err is a context cancellation/deadline error.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Progress receives per-spec lifecycle callbacks from RunAllCtx. Both
// callbacks are optional (nil fields are skipped) and are invoked from the
// pool's worker goroutines, so implementations must be safe for concurrent
// use. Finished's executed flag distinguishes a fresh simulation from a
// store or singleflight hit (see run).
type Progress struct {
	// Started fires when a worker picks up spec i.
	Started func(i int)
	// Sample fires for each closed observation window while spec i
	// simulates (window size: Runner.SampleInterval). It only fires for
	// specs this pool actually executes — store hits and singleflight
	// waiters complete without samples. Called from the simulating
	// goroutine; it must return quickly.
	Sample func(i int, s metrics.Sample)
	// Finished fires when spec i completes (successfully or not).
	Finished func(i int, st *metrics.Stats, executed bool, err error)
}

// RunAll executes specs on a worker pool and returns stats in spec order.
// Failed specs leave a nil entry and their errors — each annotated with its
// spec key — are aggregated with errors.Join, so callers get the partial
// results alongside the combined failure.
func (r *Runner) RunAll(specs []Spec) ([]*metrics.Stats, error) {
	return r.RunAllCtx(context.Background(), specs, nil)
}

// RunAllCtx is RunAll with cooperative cancellation and optional per-spec
// progress reporting. Cancellation is immediate, not just between specs:
// in-flight simulations stop at the next context poll, and specs not yet
// started fail with the context's error. The worker pool always drains
// fully before RunAllCtx returns.
func (r *Runner) RunAllCtx(ctx context.Context, specs []Spec, p *Progress) ([]*metrics.Stats, error) {
	workers := r.Workers
	switch {
	case r.Exec != nil:
		workers = len(specs) // every spec in flight: Exec uses no local CPU
	case workers <= 0:
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]*metrics.Stats, len(specs))
	errs := make([]error, len(specs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if p != nil && p.Started != nil {
					p.Started(i)
				}
				var onSample func(metrics.Sample)
				if p != nil && p.Sample != nil {
					i := i
					onSample = func(s metrics.Sample) { p.Sample(i, s) }
				}
				var executed bool
				// The item index arrives over the work channel, so detcheck
				// sees goroutine send order flowing into the simulation —
				// but each item's stats depend only on specs[i], and the
				// result re-keys deterministically into out[i].
				//smtlint:allow detcheck: channel-delivered index selects which spec runs, not what it computes; results re-key into out[i]
				out[i], executed, errs[i] = r.run(ctx, specs[i], onSample)
				if p != nil && p.Finished != nil {
					p.Finished(i, out[i], executed, errs[i])
				}
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", specs[i].key(), err)
		}
	}
	return out, errors.Join(errs...)
}

// mean returns the arithmetic mean of xs (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
