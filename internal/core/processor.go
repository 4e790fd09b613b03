package core

import (
	"fmt"
	"sync"

	"clustersmt/internal/bpred"
	"clustersmt/internal/cachesim"
	"clustersmt/internal/cluster"
	"clustersmt/internal/frontend"
	"clustersmt/internal/interconnect"
	"clustersmt/internal/isa"
	"clustersmt/internal/metrics"
	"clustersmt/internal/mob"
	"clustersmt/internal/policy"
	"clustersmt/internal/steer"
	"clustersmt/internal/trace"
)

// The completion-event wheel is a power-of-two ring sized per processor
// from Config.WorstCaseLatency, so any validated latency — including swept
// memory and link latencies — fits without clamping. minWheelSize keeps the
// Table 1 machine on the historical 256-slot ring; maxWheelSize is the hard
// capacity Config.Validate enforces; wheelHeadroom absorbs the +1 floors
// on top of the worst-case path.
const (
	minWheelSize  = 256
	maxWheelSize  = 1 << 16
	wheelHeadroom = 8
	// maxExecLatency bounds the non-memory execution latencies
	// (isa.Latency tops out at 4 cycles; store-to-load forwarding at 2).
	maxExecLatency = 8
)

// wheelSizeFor returns the ring length for cfg: the smallest power of two
// covering the worst-case completion distance plus headroom, at least
// minWheelSize.
func wheelSizeFor(cfg *Config) int64 {
	need := cfg.WorstCaseLatency() + wheelHeadroom
	size := int64(minWheelSize)
	for size < int64(need) {
		size <<= 1
	}
	return size
}

// ThreadProgram is one thread's input: a materialized correct-path trace
// plus the profile used to synthesize wrong-path uops after mispredictions.
type ThreadProgram struct {
	// Trace is the correct-path uop stream.
	Trace []isa.Uop
	// Profile drives wrong-path synthesis (same program statistics).
	Profile trace.Profile
	// Seed decorrelates the wrong-path stream.
	Seed uint64
}

// threadState is the per-thread front-end and bookkeeping state.
type threadState struct {
	prog      ThreadProgram
	fetchIdx  int
	seq       uint64 // next per-thread sequence number (assigned at rename)
	fq        *frontend.FetchQueue
	rat       frontend.RAT
	rob       *frontend.ROB
	wrongPath bool
	wpGen     *trace.WrongPathGenerator
	// fetchStallUntil blocks fetch during redirect refill.
	fetchStallUntil int64
	committed       uint64
	// warmCycle/warmCommitted anchor the thread's private measurement
	// window (set when the thread passes its warm-up commit count).
	warmCycle     int64
	warmCommitted uint64
}

//smtlint:noalloc
func (ts *threadState) traceDone() bool { return ts.fetchIdx >= len(ts.prog.Trace) }

// finished reports whether the thread has drained completely.
//
//smtlint:noalloc
func (ts *threadState) finished() bool {
	return ts.traceDone() && !ts.wrongPath && ts.fq.Len() == 0 && ts.rob.Len() == 0
}

// Processor is one simulated machine instance. It is not safe for
// concurrent use; run independent instances per goroutine.
type Processor struct {
	cfg Config

	sel   policy.Selector
	iqPol policy.IQPolicy
	rfPol policy.RFPolicy
	st    steer.Steerer

	// storage holds every structure a later processor can reuse; Release
	// hands it to spares.
	storage
	spares *Spares

	net *interconnect.Network

	ports []cluster.Ports

	now    int64
	nextID uint64

	rrCommit int
	rrSelect int

	wheelMask int64

	stats          *metrics.Stats
	statsCycleBase int64
	statsFwdBase   uint64

	// time-series sampling (SetSampler): observational only, allocation-free
	sampleFn    func(metrics.Sample)
	sampleEvery int64
	sampleBase  sampleBase

	// scratch buffers reused across cycles to avoid allocation
	scratchReady    []*frontend.ROBEntry
	scratchOrder    []int
	scratchIcount   []int
	scratchSrcCnt   []int
	scratchOcc      []int
	scratchPlan     renamePlan
	scratchLeftover [metrics.NumImbClasses][MaxClusters]bool
}

// storage is a processor's reusable machine: every structure whose size
// depends only on the configuration. Release hands it to the processor's
// Spares, and the next build resets it in place (see Spares).
type storage struct {
	pred *bpred.Predictor
	mem  *cachesim.Hierarchy
	mobq *mob.MOB

	iqs     []*cluster.IssueQueue[*frontend.ROBEntry]
	rfs     []*cluster.RegFile[*frontend.ROBEntry]
	threads []*threadState

	wheel []wheelBucket

	// pool is the free ROB-entry list; slab backs the entries a build puts
	// in it, and may be longer than this configuration needs.
	pool []*frontend.ROBEntry
	slab []frontend.ROBEntry
}

// Spares is a free list of released processors' storage. A processor built
// from a Spares takes the most recently released storage, resets every
// structure of a matching size in place and allocates only the rest;
// Release gives the storage back. The list never holds more entries than
// the number of its processors that were alive at once, and its storage
// goes when the Spares does. The zero value is an empty list; it is safe
// for concurrent use.
type Spares struct {
	mu   sync.Mutex
	free []storage
}

// take pops the most recently released storage; a nil or empty s yields
// none, so the build allocates everything.
func (s *Spares) take() (st storage) {
	if s == nil {
		return st
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		st, s.free[n-1] = s.free[n-1], storage{}
		s.free = s.free[:n-1]
	}
	return st
}

func (s *Spares) put(st storage) {
	s.mu.Lock()
	s.free = append(s.free, st)
	s.mu.Unlock()
}

// Len returns the number of spare machines s holds.
func (s *Spares) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.free)
}

// New builds a processor from cfg, the scheme components, the steering
// function and one program per thread. A nil steerer selects the baseline
// dependence/workload steering. It allocates the whole machine; see
// Spares.NewScheme for a build on released storage.
func New(cfg Config, sel policy.Selector, iqPol policy.IQPolicy, rfPol policy.RFPolicy, st steer.Steerer, progs []ThreadProgram) (*Processor, error) {
	return (*Spares)(nil).build(cfg, sel, iqPol, rfPol, st, progs)
}

// NewScheme builds a processor running the given resource-assignment
// scheme: a named paper scheme ("cdprf") or a composed component spec in
// the policy grammar ("sel=stall,iq=cssp,rf=cdprf").
func NewScheme(cfg Config, scheme string, progs []ThreadProgram) (*Processor, error) {
	return (*Spares)(nil).NewScheme(cfg, scheme, progs)
}

// NewScheme is core.NewScheme on storage from s: the processor takes a
// released machine when s holds one, and its Release returns the machine
// to s. A nil s allocates, like core.NewScheme.
func (s *Spares) NewScheme(cfg Config, scheme string, progs []ThreadProgram) (*Processor, error) {
	sp, err := policy.ParseSpec(scheme)
	if err != nil {
		return nil, err
	}
	sel, iq, rf, err := sp.New(cfg.NumThreads)
	if err != nil {
		return nil, err
	}
	return s.build(cfg, sel, iq, rf, nil, progs)
}

// orNew returns x, or a new zero T for a Reset to size when x is nil.
func orNew[T any](x *T) *T {
	if x == nil {
		return new(T)
	}
	return x
}

// fit returns s with length n, keeping its elements and any beyond its
// length that its capacity still holds (storage a larger machine left).
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// build is New on storage taken from s.
func (s *Spares) build(cfg Config, sel policy.Selector, iqPol policy.IQPolicy, rfPol policy.RFPolicy, st steer.Steerer, progs []ThreadProgram) (*Processor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(progs) != cfg.NumThreads {
		return nil, fmt.Errorf("core: %d programs for %d threads", len(progs), cfg.NumThreads)
	}
	if st == nil {
		st = steer.DependenceBalance{BalanceSlack: cfg.SteerSlack}
	}
	p := &Processor{
		cfg:     cfg,
		sel:     sel,
		iqPol:   iqPol,
		rfPol:   rfPol,
		st:      st,
		storage: s.take(),
		spares:  s,
		net:     interconnect.New(cfg.Net),
		stats:   metrics.NewStats(cfg.NumThreads, cfg.NumClusters),
	}
	p.pred = orNew(p.pred)
	p.pred.Reset(cfg.BPred)
	p.mem = orNew(p.mem)
	p.mem.Reset(cfg.Cache)
	p.mobq = orNew(p.mobq)
	p.mobq.Reset(cfg.MOBSize, cfg.NumThreads)
	wheelLen := wheelSizeFor(&cfg)
	if int64(len(p.wheel)) != wheelLen {
		p.wheel = make([]wheelBucket, wheelLen)
	}
	clear(p.wheel)
	p.wheelMask = wheelLen - 1
	p.iqs = fit(p.iqs, cfg.NumClusters)
	p.rfs = fit(p.rfs, cfg.NumClusters)
	for c := 0; c < cfg.NumClusters; c++ {
		p.iqs[c] = orNew(p.iqs[c])
		p.iqs[c].Reset(cfg.IQSize, cfg.NumThreads)
		p.rfs[c] = orNew(p.rfs[c])
		p.rfs[c].Reset(cfg.IntRegsPerCluster, cfg.FpRegsPerCluster, cfg.NumThreads)
		p.rfs[c].OnWake = p.wake
	}
	p.ports = make([]cluster.Ports, cfg.NumClusters)
	p.threads = fit(p.threads, cfg.NumThreads)
	for t := range p.threads {
		ts := orNew(p.threads[t])
		*ts = threadState{warmCycle: -1, prog: progs[t], fq: orNew(ts.fq), rob: orNew(ts.rob), wpGen: orNew(ts.wpGen)}
		ts.fq.Reset(cfg.FetchQueueCap)
		ts.rob.Reset(cfg.ROBPerThread)
		ts.wpGen.Reset(progs[t].Profile, progs[t].Seed+uint64(t)*0x9e37)
		p.threads[t] = ts
	}
	p.scratchSrcCnt = make([]int, cfg.NumClusters)
	p.scratchOcc = make([]int, cfg.NumClusters)
	p.scratchReady = make([]*frontend.ROBEntry, 0, cfg.IQSize)
	p.scratchOrder = make([]int, 0, cfg.NumThreads)
	p.scratchIcount = make([]int, 0, cfg.NumThreads)
	if p.pool == nil {
		p.pool = make([]*frontend.ROBEntry, 0, entryPoolCap)
	}
	clear(p.pool[:cap(p.pool)])
	p.pool = p.pool[:0]
	if cfg.ROBPerThread > 0 {
		// Pre-populate the entry pool to its bounded-configuration ceiling
		// (every in-flight entry sits in a ROB section or, briefly, in the
		// wheel after a squash) so the cycle loop never calls the allocator.
		// Unbounded ROBs grow the pool on demand instead.
		prefill := cfg.NumThreads*cfg.ROBPerThread + 256
		if prefill > entryPoolCap {
			prefill = entryPoolCap
		}
		if len(p.slab) < prefill {
			p.slab = make([]frontend.ROBEntry, prefill)
		}
		for i := range prefill {
			p.pool = append(p.pool, &p.slab[i])
		}
	}
	return p, nil
}

// Config returns the configuration in use.
func (p *Processor) Config() Config { return p.cfg }

// Stats returns the run statistics collected so far.
func (p *Processor) Stats() *metrics.Stats { return p.stats }

// Mem exposes the memory hierarchy (for stats and tests). It panics after
// Release: the hierarchy may then belong to another simulation.
func (p *Processor) Mem() *cachesim.Hierarchy {
	if p.mem == nil {
		panic("core: Mem called after Release")
	}
	return p.mem
}

// Release hands the processor's machine storage back to the Spares it was
// built from, for the next processor built there to reuse. Call it once
// the run is over and its statistics are read; the processor must not be
// stepped again, and Mem panics. A processor built without a Spares just
// drops its storage. Releasing twice is a no-op.
func (p *Processor) Release() {
	if p.mem == nil {
		return
	}
	st := p.storage
	p.storage = storage{}
	if p.spares == nil {
		return
	}
	for _, ts := range st.threads {
		ts.prog = ThreadProgram{} // the trace is not the spare's to keep
	}
	for _, rf := range st.rfs {
		rf.OnWake = nil
	}
	p.spares.put(st)
}

// entry pool --------------------------------------------------------------

//smtlint:noalloc
func (p *Processor) getEntry() *frontend.ROBEntry {
	if n := len(p.pool); n > 0 {
		e := p.pool[n-1]
		p.pool = p.pool[:n-1]
		e.Reset()
		return e
	}
	//smtlint:allow pool refill; cold once the pool reaches steady-state population
	e := &frontend.ROBEntry{}
	e.Reset()
	return e
}

// entryPoolCap bounds the ROB-entry free pool; in-flight entries are capped
// by the ROB sections plus wheel-held squashed completions, so the pool's
// population stabilizes far below this in bounded configurations.
const entryPoolCap = 4096

//smtlint:noalloc
func (p *Processor) putEntry(e *frontend.ROBEntry) {
	if len(p.pool) < entryPoolCap {
		//smtlint:allow pool growth bounded by entryPoolCap
		p.pool = append(p.pool, e)
	}
}

// wheelBucket heads one completion cycle's intrusive FIFO of entries,
// chained through ROBEntry.WheelNext. Enqueue at the tail, drain from the
// head: completion processing order is exactly the scheduling order, and no
// bucket ever touches the allocator (the per-bucket slices this replaces
// kept growing whenever MSHR-coalesced loads piled completions onto one
// cycle).
type wheelBucket struct {
	head, tail *frontend.ROBEntry
}

// iqCluster returns the cluster whose issue queue holds e: copies wait in
// their source cluster, everything else in its execution cluster.
//
//smtlint:noalloc
func iqCluster(e *frontend.ROBEntry) int {
	if e.IsCopy() {
		return e.SrcCluster
	}
	return e.Cluster
}

// wrapIdx reduces i into [0, n) given i < 2n, the round-robin rotation of
// the per-cycle loops, without the hardware divide of a variable modulo.
//
//smtlint:noalloc
func wrapIdx(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// policy.Machine implementation -------------------------------------------

var _ policy.Machine = (*Processor)(nil)

// NumThreads implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) NumThreads() int { return p.cfg.NumThreads }

// NumClusters implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) NumClusters() int { return p.cfg.NumClusters }

// IQSize implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) IQSize() int { return p.cfg.IQSize }

// IQFree implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) IQFree(c int) int { return p.iqs[c].Free() }

// IQOcc implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) IQOcc(c, t int) int { return p.iqs[c].Occupancy(t) }

// RFTotal implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) RFTotal(k isa.RegKind) int {
	total := 0
	for _, rf := range p.rfs {
		total += rf.Total(k)
	}
	return total
}

// RFFree implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) RFFree(k isa.RegKind) int {
	total := 0
	for _, rf := range p.rfs {
		total += rf.FreeCount(k)
	}
	return total
}

// RFInUse implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) RFInUse(t int, k isa.RegKind) int {
	total := 0
	for _, rf := range p.rfs {
		total += rf.InUse(k, t)
	}
	return total
}

// RFClusterTotal implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) RFClusterTotal(k isa.RegKind) int { return p.rfs[0].Total(k) }

// RFClusterInUse implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) RFClusterInUse(c, t int, k isa.RegKind) int { return p.rfs[c].InUse(k, t) }

// Now implements policy.Machine.
//
//smtlint:noalloc
func (p *Processor) Now() int64 { return p.now }

// Committed implements policy.PerfReader for adaptive schemes.
//
//smtlint:noalloc
func (p *Processor) Committed(t int) uint64 { return p.threads[t].committed }
