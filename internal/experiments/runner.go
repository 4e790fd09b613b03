// Package experiments turns a workload, a scheme and a machine into a
// simulation (Programs, Machine, Simulate) and answers each spec on a
// memoizing runner with content-addressed result keys. The campaign engine
// (internal/campaign) runs every campaign, the paper's figures included,
// through these runners, one spec at a time (Runner.Do).
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
	"slices"
	"strconv"
	"sync"

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
// sweep the back-end geometry; 0 keeps the Table 1 value (2 clusters, 2
// one-cycle links, 60-cycle memory). They feed Machine, so the
// content-addressed CacheKey distinguishes shapes automatically.
type Spec struct {
	Workload     workload.Workload
	Scheme       string
	IQSize       int
	RegsPerClust int // 0 = unbounded
	ROBPerThread int // 0 = unbounded
	SingleThread int // -1 = SMT
	NumClusters  int // 0 = Table 1 default (2)
	Links        int // 0 = Table 1 default (2)
	LinkLatency  int // cycles; 0 = Table 1 default (1)
	MemLatency   int // cycles; 0 = Table 1 default (60)
}

// key identifies a spec for the session-local memo and singleflight maps.
// The workload contributes a content digest, not just its name: a
// hand-built Workload reusing a pool name with different seeds or profiles
// must not collapse into the named workload's flight or recall its
// content-addressed key (the same aliasing rule traceKey enforces for
// trace memoization).
func (s Spec) key() string { return s.keyOf(workloadDigest(s.Workload)) }

// keyOf is key for a caller that already holds d = workloadDigest(s.Workload).
func (s Spec) keyOf(d uint64) string {
	if debugKeyWork != nil {
		debugKeyWork("spec")
	}
	var buf [160]byte
	b := append(buf[:0], s.Workload.Name...)
	b = append(b, '@')
	b = strconv.AppendUint(b, d, 16)
	b = append(b, '|')
	b = append(b, s.Scheme...)
	b = appendField(b, "|iq", s.IQSize)
	b = appendField(b, "|rf", s.RegsPerClust)
	b = appendField(b, "|rob", s.ROBPerThread)
	b = appendField(b, "|st", s.SingleThread)
	b = appendField(b, "|c", s.NumClusters)
	b = appendField(b, "|lk", s.Links)
	b = appendField(b, "|ll", s.LinkLatency)
	b = appendField(b, "|ml", s.MemLatency)
	return string(b)
}

// appendField appends name and v in decimal, as fmt's %s%d would.
func appendField(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// debugKeyWork, when set by a test, observes the key derivation's work:
// "spec" for each session key, and "config", "workload" or "scheme" for
// each encoding a runner computes rather than recalls.
var debugKeyWork func(what string)

// workloadDigest hashes a workload's simulation-relevant content (seeds and
// thread profiles; the name is carried separately for readability). It
// mixes the fields a word at a time; the digest is session-local and never
// persisted, so it only needs to be deterministic.
func workloadDigest(w workload.Workload) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [512]byte
	b := buf[:0]
	for _, s := range w.Seeds {
		b = binary.LittleEndian.AppendUint64(b, s)
	}
	for _, p := range w.Threads {
		b = appendProfile(b, p)
	}
	h := uint64(offset64)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime64
		h ^= h >> 32
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// Runner answers Specs with memoization. It is safe for concurrent use;
// its caller decides how many specs run at once.
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
// core, which is what makes the sharing safe. A trace stays memoized until
// DropTraces forgets its workload or the runner itself goes; once no
// simulation reads a forgotten trace, its buffer goes on the runner's free
// list, and the next trace the runner generates overwrites it instead of
// allocating its own. Each finished simulation likewise leaves its machine
// (tag arrays, predictor, ROB-entry slab, queues) on the runner's free
// list of machines, and the next simulation resets it in place
// (core.Spares).
type Runner struct {
	// TraceLen is the per-thread trace length in uops; it also sets each
	// simulation's warm-up and cycle bound (see Machine).
	TraceLen int
	// Verbose, when set, receives one line per completed run.
	Verbose func(string)
	// Store receives completed results and is consulted before executing.
	// NewRunner sets a private in-memory store. Replace it before the
	// first Do call; it must not change afterwards.
	Store ResultStore
	// Gate, when non-nil, is acquired around every actual simulation (not
	// store hits). Sharing one gate between runners bounds total simulation
	// concurrency across them — the campaign engine uses this so that
	// concurrent campaigns share one machine-wide worker budget instead of
	// each bringing its own pool. Nil leaves simulation concurrency to the
	// callers of Do.
	Gate chan struct{}
	// Exec, when non-nil, simulates every store miss in place of the local
	// simulator, under the spec's singleflight; the runner stores and
	// counts what it returns (executed = false: a store hit on Exec's
	// side). An Exec'd spec uses no local CPU, so the runner then takes no
	// Gate. No samples are taken.
	Exec func(ctx context.Context, traceLen int, s Spec) (st *metrics.Stats, executed bool, err error)
	// SampleInterval is the time-series observation window in cycles for
	// Do calls given an onSample callback (see
	// core.Processor.SetSampler for rounding; <= 0 selects the core
	// default). Sampling is observational only and does not affect
	// CacheKey: a sampled and an unsampled run of one spec share a stored
	// result, which also means store hits and singleflight waiters receive
	// no samples — only the flight owner simulates, and only simulations
	// produce time series.
	SampleInterval int64

	mu       sync.Mutex
	inflight map[string]*flight
	keys     map[string]keyEntry // by spec key

	// The JSON encodings content keys are assembled from (see
	// fingerprint), each computed once per runner under encMu.
	encMu     sync.Mutex
	configs   map[core.Config][]byte
	workloads map[workloadID][]byte
	schemes   map[string][]byte // by scheme reference, canonicalized

	traceMu sync.Mutex
	traces  map[traceKey]*traceEntry
	// freeTraces holds the buffers of forgotten traces that no simulation
	// reads any more, for new traces to be generated into: never more than
	// the runner has had live at once.
	freeTraces [][]isa.Uop

	// spares holds the machines of finished simulations for the next ones
	// to reuse: never more than the runner has had simulating at once.
	spares core.Spares
}

// keyEntry is what a runner remembers about one spec key.
type keyEntry struct {
	ck string // content-addressed key (CacheKey)
	// stored marks that a flight for the spec has put its result in the
	// store, so a caller whose unlocked Get missed re-checks the store.
	stored bool
}

// workloadID identifies a workload's JSON encoding: its content digest
// plus every field the digest leaves out. A name alone is not enough — a
// hand-built workload may reuse a pool name with other seeds or profiles.
type workloadID struct {
	digest         uint64
	name, category string
	typ            workload.Type
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

// profileFingerprint digests a trace profile for trace memoization: the
// SHA-256 of appendProfile's encoding. No persisted key depends on it.
func profileFingerprint(p trace.Profile) [sha256.Size]byte {
	var buf [256]byte
	return sha256.Sum256(appendProfile(buf[:0], p))
}

// appendProfile writes every field of p in declaration order to b (strings
// length-prefixed, numbers as 8 little-endian bytes, floats as their IEEE
// bits), the input of profileFingerprint and workloadDigest. A field of a
// kind it cannot write is a programming error, caught by
// TestProfileFingerprintCoversEveryField.
func appendProfile(b []byte, p trace.Profile) []byte {
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
			panic(fmt.Sprintf("experiments: appendProfile cannot write field %s of kind %s",
				v.Type().Field(i).Name, f.Kind()))
		}
	}
	return b
}

// traceEntry is one memoized trace. holds and dropped are guarded by the
// runner's traceMu; uops is written once, under once.
type traceEntry struct {
	once sync.Once
	uops []isa.Uop
	// holds counts the simulations whose programs read uops.
	holds int
	// dropped marks an entry DropTraces has forgotten while it was held:
	// its last holder frees the buffer.
	dropped bool
}

// NewRunner returns a runner with the given per-thread trace length and a
// private in-memory store. It is the only constructor: a Runner built as a
// struct literal has no session maps.
func NewRunner(traceLen int) *Runner {
	return &Runner{
		TraceLen:  traceLen,
		Store:     NewMemStore(),
		inflight:  make(map[string]*flight),
		keys:      make(map[string]keyEntry),
		traces:    make(map[traceKey]*traceEntry),
		configs:   make(map[core.Config][]byte),
		workloads: make(map[workloadID][]byte),
		schemes:   make(map[string][]byte),
	}
}

// traceKey returns the memo key of thread i's trace for w.
func (r *Runner) traceKey(w workload.Workload, i int) traceKey {
	return traceKey{seed: w.Seeds[i], length: r.TraceLen, profile: profileFingerprint(w.Threads[i])}
}

// traceFor returns the entry of thread i's materialized trace for w, with
// one hold on it that the caller returns with release. The trace is
// generated at most once per (profile, seed, length) until DropTraces
// forgets it, into a free buffer when the runner has one. Its uops are
// shared; callers must treat them as immutable.
func (r *Runner) traceFor(w workload.Workload, i int) *traceEntry {
	k := r.traceKey(w, i)
	r.traceMu.Lock()
	e := r.traces[k]
	if e == nil {
		e = &traceEntry{}
		if n := len(r.freeTraces); n > 0 {
			e.uops = r.freeTraces[n-1]
			r.freeTraces[n-1] = nil
			r.freeTraces = r.freeTraces[:n-1]
		}
		r.traces[k] = e
		if debugTraceMemo != nil {
			debugTraceMemo(r, k.seed, r.traces)
		}
	}
	e.holds++
	r.traceMu.Unlock()
	e.once.Do(func() {
		if cap(e.uops) < r.TraceLen {
			e.uops = make([]isa.Uop, r.TraceLen)
		}
		e.uops = e.uops[:r.TraceLen]
		trace.NewGenerator(w.Threads[i], w.Seeds[i]).Fill(e.uops)
	})
	return e
}

// release returns one hold on each of held. A forgotten trace's last
// holder puts its buffer on the free list.
func (r *Runner) release(held []*traceEntry) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	for _, e := range held {
		if e.holds--; e.holds == 0 && e.dropped {
			r.freeTraces = append(r.freeTraces, e.uops)
		}
	}
}

// DropTraces forgets w's memoized traces at the runner's trace length. A
// trace no simulation reads hands its buffer to the runner's free list at
// once; a held one hands it on when its last simulation finishes. A later
// spec of w generates them again. The campaign engine calls it when no
// pending item of any plan it runs needs w on this runner any more.
func (r *Runner) DropTraces(w workload.Workload) {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	for i := range w.Threads {
		k := r.traceKey(w, i)
		e := r.traces[k]
		if e == nil {
			continue
		}
		delete(r.traces, k)
		if e.holds == 0 {
			r.freeTraces = append(r.freeTraces, e.uops)
		} else {
			e.dropped = true
		}
	}
}

// debugTraceMemo, when set by a test, is called under traceMu each time the
// runner memoizes a new trace, with the new trace's seed and the memo as it
// then stands. A memoized trace is generated exactly once, so each call is
// one generation.
var debugTraceMemo func(r *Runner, seed uint64, memo map[traceKey]*traceEntry)

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

// programs is Programs over the runner's memoized traces. It returns the
// entries it holds, for release once no simulation reads the programs.
func (r *Runner) programs(s Spec) (progs []core.ThreadProgram, held []*traceEntry) {
	progs = buildPrograms(s, func(i int) []isa.Uop {
		e := r.traceFor(s.Workload, i)
		held = append(held, e)
		return e.uops
	})
	return progs, held
}

// CacheKey returns the content-addressed result key for s under this
// runner's settings: the hex SHA-256 of the spec fingerprint. Equal keys
// mean equal simulated outcomes across processes and branches (for one
// core.SimVersion), which is what lets a disk store answer for a re-run.
func (r *Runner) CacheKey(s Spec) string {
	_, ck := r.keysOf(s)
	return ck
}

// keysOf derives s's session key (Spec.key) and its content key
// (CacheKey), digesting the workload once for both.
func (r *Runner) keysOf(s Spec) (k, ck string) {
	d := workloadDigest(s.Workload)
	k = s.keyOf(d)
	r.mu.Lock()
	e, ok := r.keys[k]
	r.mu.Unlock()
	if ok {
		return k, e.ck
	}
	ck = r.computeKey(s, k, d)
	r.mu.Lock()
	if _, ok := r.keys[k]; !ok { // an owner may have marked it stored meanwhile
		r.keys[k] = keyEntry{ck: ck}
	}
	r.mu.Unlock()
	return k, ck
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

// computeKey hashes s's fingerprint; k and d are its session key and
// workload digest.
func (r *Runner) computeKey(s Spec, k string, d uint64) string {
	bp := fingerprintBufs.Get().(*[]byte)
	defer fingerprintBufs.Put(bp)
	b, err := r.appendFingerprint((*bp)[:0], s, d)
	if err != nil {
		return "spec:" + k // unhashable: session-local key, never persisted as content
	}
	*bp = b[:0]
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fingerprintBufs recycles computeKey's fingerprint buffers: a fingerprint
// is a few kilobytes, and a warm resubmission derives one per item.
var fingerprintBufs = sync.Pool{New: func() any { return new([]byte) }}

// simVersionJSON is core.SimVersion encoded as a JSON string.
var simVersionJSON, _ = json.Marshal(core.SimVersion)

// fingerprint returns the bytes CacheKey hashes: everything that determines
// s's simulated outcome — the simulator revision, the canonical scheme, the
// thread selection, the trace length (which the config's WarmupUops does
// not capture on its own), the complete workload definition (profiles and
// seeds) and the canonical machine configuration — as one JSON object,
// byte-identical to encoding/json's output for the struct
// {version, scheme, single_thread, trace_len, workload, config} that keys
// have always hashed (TestCacheKeyFingerprintMatchesJSON). It appends
// memoized encodings instead of marshalling per spec: a sweep shares a few
// machines and schemes, and each workload recurs once per scheme.
// d is workloadDigest(s.Workload).
func (r *Runner) fingerprint(s Spec, d uint64) ([]byte, error) {
	return r.appendFingerprint(nil, s, d)
}

// appendFingerprint appends fingerprint's bytes to b.
func (r *Runner) appendFingerprint(b []byte, s Spec, d uint64) ([]byte, error) {
	r.encMu.Lock()
	cfg, err := encodeOnce(r.configs, Machine(s, r.TraceLen), "config", core.Config.Canonical)
	var wl, scheme []byte
	if err == nil {
		id := workloadID{digest: d, name: s.Workload.Name, category: s.Workload.Category, typ: s.Workload.Type}
		wl, err = encodeOnce(r.workloads, id, "workload", func(workloadID) ([]byte, error) { return json.Marshal(s.Workload) })
	}
	if err == nil {
		scheme, err = encodeOnce(r.schemes, s.Scheme, "scheme", func(ref string) ([]byte, error) { return json.Marshal(canonicalScheme(ref)) })
	}
	r.encMu.Unlock()
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, 128+len(scheme)+len(wl)+len(cfg))
	b = append(b, `{"version":`...)
	b = append(b, simVersionJSON...)
	b = append(b, `,"scheme":`...)
	b = append(b, scheme...)
	b = append(b, `,"single_thread":`...)
	b = strconv.AppendInt(b, int64(s.SingleThread), 10)
	b = append(b, `,"trace_len":`...)
	b = strconv.AppendInt(b, int64(r.TraceLen), 10)
	b = append(b, `,"workload":`...)
	b = append(b, wl...)
	b = append(b, `,"config":`...)
	b = append(b, cfg...)
	return append(b, '}'), nil
}

// encodeOnce returns m[k], filling it with enc(k) on first use; a failed
// encoding is not remembered. The caller holds r.encMu, so each distinct k
// is encoded once per runner.
func encodeOnce[K comparable](m map[K][]byte, k K, what string, enc func(K) ([]byte, error)) ([]byte, error) {
	if b, ok := m[k]; ok {
		return b, nil
	}
	if debugKeyWork != nil {
		debugKeyWork(what)
	}
	b, err := enc(k)
	if err == nil {
		m[k] = b
	}
	return b, err
}

// execute runs one spec to completion (uncached) on the local simulator. A
// context cancellation mid-simulation, or a run stopped at its cycle bound
// (ErrCycleBound), discards the partial run: it is not counted as executed
// and never reaches the store. The processor is built on a machine an
// earlier simulation released when the runner holds one, and on every path
// its machine is released for the next simulation to reuse, and then its
// holds on its traces. A non-nil onSample attaches a time-series sampler
// for the duration of the run (see SampleInterval).
func (r *Runner) execute(ctx context.Context, s Spec, onSample func(metrics.Sample)) (*metrics.Stats, error) {
	progs, held := r.programs(s)
	defer r.release(held)
	p, err := r.spares.NewScheme(Machine(s, r.TraceLen), s.Scheme, progs)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	if onSample != nil {
		p.SetSampler(r.SampleInterval, onSample)
	}
	return Simulate(ctx, p)
}

// Do answers s: from the store, by waiting on another caller's flight for
// the same spec, or by simulating it (locally, or through Exec). It returns
// the stats (nil on failure), s's content key (CacheKey), whether THIS call
// ran the simulation, the error the store returned for the fresh result's
// Put (the run still succeeds; only its persistence was lost) and the
// run's error. executed is false for store hits and for singleflight
// waiters (the flight owner reports true), so summing it across
// arbitrarily many concurrent callers counts each distinct spec exactly
// once — the property the campaign engine's Executed tally and the
// service's cross-job deduplication test rely on.
//
// Cancelling ctx stops an in-flight simulation at its next context poll;
// the partial run is discarded, not stored. A cancellation error from the
// flight owner does NOT propagate to waiters whose own context is still
// live: on a shared engine the owner belongs to a different campaign, and
// its DELETE must not fail overlapping items of uncancelled jobs — the
// waiter retries (typically becoming the new owner) instead. A non-nil
// onSample receives the time series of a run this call simulates (see
// SampleInterval).
func (r *Runner) Do(ctx context.Context, s Spec, onSample func(metrics.Sample)) (st *metrics.Stats, key string, executed bool, putErr, err error) {
	k, ck := r.keysOf(s)
	for {
		st, executed, putErr, err, retry := r.runOnce(ctx, s, k, ck, onSample)
		if !retry {
			return st, ck, executed, putErr, err
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
// caller should not inherit (see Do).
func (r *Runner) runOnce(ctx context.Context, s Spec, k, ck string, onSample func(metrics.Sample)) (st *metrics.Stats, executed bool, putErr, err error, retry bool) {
	if err := ctx.Err(); err != nil {
		return nil, false, nil, err, false
	}
	store := r.Store
	st, ok, getErr := store.Get(ck)
	if getErr != nil && r.Verbose != nil {
		r.Verbose(fmt.Sprintf("%-60s store get: %v", k, getErr))
	}
	if ok {
		return st, false, nil, nil, false
	}
	r.mu.Lock()
	if f, ok := r.inflight[k]; ok {
		r.mu.Unlock()
		select {
		case <-f.done:
			if ctxErr(f.err) && ctx.Err() == nil {
				return nil, false, nil, nil, true // owner's job canceled, not ours
			}
			return f.st, false, nil, f.err, false
		case <-ctx.Done():
			return nil, false, nil, ctx.Err(), false
		}
	}
	if r.keys[k].stored {
		if st, ok, _ := store.Get(ck); ok {
			r.mu.Unlock()
			return st, false, nil, nil, false
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
			return nil, false, nil, f.err, false
		}
	}

	if r.Exec != nil {
		f.st, executed, f.err = r.Exec(ctx, r.TraceLen, s)
	} else {
		f.st, f.err = r.execute(ctx, s, onSample)
		executed = f.err == nil
	}
	if f.err == nil {
		putErr = store.Put(ck, f.st)
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
	return f.st, executed, putErr, f.err, false
}

// ctxErr reports whether err is a context cancellation/deadline error.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
