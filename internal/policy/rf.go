package policy

import "clustersmt/internal/isa"

// RFPolicy bounds per-thread physical-register occupancy (Table 4 schemes
// and the dynamic scheme of Figs. 7–8). MayAllocate is consulted at rename
// for every register the uop (and its generated copies) needs.
type RFPolicy interface {
	// Name identifies the scheme.
	Name() string
	// MayAllocate reports whether thread t may allocate n more physical
	// registers of kind k in cluster c under the scheme's accounting.
	// Physical free-list space is checked separately by the core.
	//smtlint:noalloc
	MayAllocate(t int, k isa.RegKind, c int, n int, m Machine) bool
	// NoteStall records that thread t's rename was blocked this cycle for
	// lack of registers of kind k (feeds CDPRF's Starvation counters).
	//smtlint:noalloc
	NoteStall(t int, k isa.RegKind)
	// EndCycle runs once per simulated cycle after rename, letting
	// adaptive schemes accumulate occupancy counters and re-threshold.
	//smtlint:noalloc
	EndCycle(m Machine)
}

// NoRF applies no register-file cap (used when the RF is unbounded or
// managed only by the IQ scheme, e.g. plain CSSP).
type NoRF struct{}

// Name implements RFPolicy.
func (NoRF) Name() string { return "none" }

// MayAllocate implements RFPolicy.
//
//smtlint:noalloc
func (NoRF) MayAllocate(int, isa.RegKind, int, int, Machine) bool { return true }

// NoteStall implements RFPolicy.
//
//smtlint:noalloc
func (NoRF) NoteStall(int, isa.RegKind) {}

// EndCycle implements RFPolicy.
//
//smtlint:noalloc
func (NoRF) EndCycle(Machine) {}

// RFConfig parameterizes register-file policies.
type RFConfig struct {
	// NumThreads is the number of hardware threads.
	NumThreads int
	// Interval is CDPRF's re-threshold period in cycles (paper: 128 K,
	// chosen as a power of two so the average is a shift).
	Interval int64
}

// DefaultRFConfig returns the CDPRF parameters for n threads. The paper
// uses a 128 K-cycle re-threshold interval on multi-million-cycle runs; the
// default here is 16 K cycles (still a power of two, so the average is a
// shift) because the reproduction's traces are two orders of magnitude
// shorter — the interval-to-run-length ratio is preserved. The ablation
// benchmark BenchmarkAblationCDPRFInterval sweeps this choice.
func DefaultRFConfig(n int) RFConfig {
	return RFConfig{NumThreads: n, Interval: 16 * 1024}
}

// CSSPRF is the Cluster-Sensitive Static Partitioned Register File: a
// thread may use at most 1/numThreads of each cluster's register file of
// each kind. The paper shows it always loses to CISPRF because it
// contradicts decisions already taken by the steering logic and CSSP
// (§5.2).
type CSSPRF struct{}

// NewCSSPRF returns the cluster-sensitive static RF policy.
func NewCSSPRF(RFConfig) RFPolicy { return CSSPRF{} }

// Name implements RFPolicy.
func (CSSPRF) Name() string { return "cssprf" }

// MayAllocate implements RFPolicy.
//
//smtlint:noalloc
func (CSSPRF) MayAllocate(t int, k isa.RegKind, c int, n int, m Machine) bool {
	return m.RFClusterInUse(c, t, k)+n <= m.RFClusterTotal(k)/m.NumThreads()
}

// NoteStall implements RFPolicy.
//
//smtlint:noalloc
func (CSSPRF) NoteStall(int, isa.RegKind) {}

// EndCycle implements RFPolicy.
//
//smtlint:noalloc
func (CSSPRF) EndCycle(Machine) {}

// CISPRF is the Cluster-Insensitive Static Partitioned Register File: a
// thread may use at most 1/numThreads of the *total* register file of each
// kind, wherever the registers live.
type CISPRF struct{}

// NewCISPRF returns the cluster-insensitive static RF policy.
func NewCISPRF(RFConfig) RFPolicy { return CISPRF{} }

// Name implements RFPolicy.
func (CISPRF) Name() string { return "cisprf" }

// MayAllocate implements RFPolicy.
//
//smtlint:noalloc
func (CISPRF) MayAllocate(t int, k isa.RegKind, _ int, n int, m Machine) bool {
	return m.RFInUse(t, k)+n <= m.RFTotal(k)/m.NumThreads()
}

// NoteStall implements RFPolicy.
//
//smtlint:noalloc
func (CISPRF) NoteStall(int, isa.RegKind) {}

// EndCycle implements RFPolicy.
//
//smtlint:noalloc
func (CISPRF) EndCycle(Machine) {}

// CDPRF is the paper's proposed Cluster-insensitive Dynamic Partitioned
// Register File (Figs. 7–8). Per thread and register kind it keeps:
//
//   - RFOC, accumulating every cycle the registers the thread is using plus
//     its Starvation counter, and
//   - Starvation, incremented each cycle the thread is stalled for lack of
//     registers of that kind and reset otherwise (this makes the threshold
//     grow quickly for starved threads).
//
// Every Interval cycles the per-thread guaranteed threshold becomes
// min(RFOC/Interval, total/numThreads) and RFOC resets. A thread below its
// threshold may always allocate; above it, it may allocate only while the
// free registers can still cover the other threads' unused guarantees.
type CDPRF struct {
	cfg       RFConfig
	rfoc      [][]int64 // [thread][kind]
	starv     [][]int64
	stalled   [][]bool
	threshold [][]int
	initDone  bool
	nextTick  int64
}

// NewCDPRF returns the dynamic RF policy with cfg (zero Interval selects
// the paper's 128 K cycles).
func NewCDPRF(cfg RFConfig) RFPolicy {
	if cfg.NumThreads <= 0 {
		cfg.NumThreads = 2
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 128 * 1024
	}
	p := &CDPRF{cfg: cfg}
	n := cfg.NumThreads
	p.rfoc = make2D[int64](n, isa.NumRegKinds)
	p.starv = make2D[int64](n, isa.NumRegKinds)
	p.threshold = make2D[int](n, isa.NumRegKinds)
	p.stalled = make2D[bool](n, isa.NumRegKinds)
	return p
}

func make2D[T any](n, m int) [][]T {
	out := make([][]T, n)
	for i := range out {
		out[i] = make([]T, m)
	}
	return out
}

// Name implements RFPolicy.
func (p *CDPRF) Name() string { return "cdprf" }

// Threshold returns the current guaranteed register count for thread t and
// kind k (exported for tests and the dynamicrf example).
func (p *CDPRF) Threshold(t int, k isa.RegKind) int { return p.threshold[t][int(k)] }

// Starvation returns the current starvation counter for thread t, kind k.
func (p *CDPRF) Starvation(t int, k isa.RegKind) int64 { return p.starv[t][int(k)] }

//smtlint:noalloc
func (p *CDPRF) ensureInit(m Machine) {
	if p.initDone {
		return
	}
	// Before the first interval completes there is no occupancy history;
	// guarantee an even static split (equivalent to CISPRF), which the
	// first re-threshold then adapts.
	for t := range p.threshold {
		for k := 0; k < isa.NumRegKinds; k++ {
			p.threshold[t][k] = m.RFTotal(isa.RegKind(k)) / p.cfg.NumThreads
		}
	}
	p.nextTick = m.Now() + p.cfg.Interval
	p.initDone = true
}

// MayAllocate implements RFPolicy. The scheme is cluster-insensitive: the
// cluster argument is ignored.
//
//smtlint:noalloc
func (p *CDPRF) MayAllocate(t int, k isa.RegKind, _ int, n int, m Machine) bool {
	p.ensureInit(m)
	ki := int(k)
	inUse := m.RFInUse(t, k)
	if inUse+n <= p.threshold[t][ki] {
		return true
	}
	// Above its guarantee the thread may only take registers that cannot
	// be needed to honor the other threads' guaranteed minima.
	reserved := 0
	for o := 0; o < m.NumThreads(); o++ {
		if o == t {
			continue
		}
		if short := p.threshold[o][ki] - m.RFInUse(o, k); short > 0 {
			reserved += short
		}
	}
	return m.RFFree(k)-reserved >= n
}

// NoteStall implements RFPolicy.
//
//smtlint:noalloc
func (p *CDPRF) NoteStall(t int, k isa.RegKind) { p.stalled[t][int(k)] = true }

// EndCycle implements RFPolicy: the per-cycle flow of Fig. 7 and the
// per-interval re-threshold of Fig. 8.
//
//smtlint:noalloc
func (p *CDPRF) EndCycle(m Machine) {
	p.ensureInit(m)
	for t := 0; t < p.cfg.NumThreads; t++ {
		for k := 0; k < isa.NumRegKinds; k++ {
			if p.stalled[t][k] {
				p.starv[t][k]++
			} else {
				p.starv[t][k] = 0
			}
			p.stalled[t][k] = false
			p.rfoc[t][k] += int64(m.RFInUse(t, isa.RegKind(k))) + p.starv[t][k]
		}
	}
	if m.Now() < p.nextTick {
		return
	}
	for t := 0; t < p.cfg.NumThreads; t++ {
		for k := 0; k < isa.NumRegKinds; k++ {
			avg := int(p.rfoc[t][k] / p.cfg.Interval)
			max := m.RFTotal(isa.RegKind(k)) / p.cfg.NumThreads
			if avg > max {
				avg = max
			}
			p.threshold[t][k] = avg
			p.rfoc[t][k] = 0
		}
	}
	p.nextTick = m.Now() + p.cfg.Interval
}
