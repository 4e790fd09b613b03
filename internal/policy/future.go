package policy

import "clustersmt/internal/isa"

// This file implements the §6 future-work directions: adapting DCRA
// (Cazorla et al., MICRO 2004, ref [30]) and hill-climbing resource
// distribution (Choi & Yeung, ISCA 2006, ref [32]) to a clustered machine
// using the paper's conclusions — issue-queue control must be
// cluster-sensitive, register-file control cluster-insensitive.

// MissObserver is implemented by policies that react to L2 misses. The core
// forwards miss events to the selector and to any IQ/RF policy implementing
// this interface.
type MissObserver interface {
	//smtlint:noalloc
	MissStart(t int, seq uint64, now int64)
	//smtlint:noalloc
	MissEnd(t int, now int64)
}

// CycleObserver is implemented by adaptive policies that need a per-cycle
// tick beyond RFPolicy.EndCycle (e.g. an adaptive IQ policy).
type CycleObserver interface {
	//smtlint:noalloc
	EndCycle(m Machine)
}

// PerfReader extends Machine for adaptive policies that optimize measured
// throughput.
type PerfReader interface {
	// Committed returns the architecturally committed uops of thread t.
	//smtlint:noalloc
	Committed(t int) uint64
}

// dcraState is shared by the DCRA IQ and RF components: it tracks which
// threads are currently "slow" (holding an outstanding L2 miss), the
// classification DCRA uses to shift resource shares toward
// memory-intensive threads so they can exploit memory-level parallelism.
type dcraState struct {
	// slowWeight is the share weight of a slow thread (spec param
	// "slowweight"; 0 selects the simplified-DCRA default of 2).
	slowWeight  int
	outstanding []int
}

//smtlint:noalloc
func (d *dcraState) ensure(n int) {
	if len(d.outstanding) < n {
		//smtlint:allow one-time growth to the observed thread count
		d.outstanding = append(d.outstanding, make([]int, n-len(d.outstanding))...)
	}
}

// MissStart implements MissObserver.
//
//smtlint:noalloc
func (d *dcraState) MissStart(t int, _ uint64, _ int64) {
	d.ensure(t + 1)
	d.outstanding[t]++
}

// MissEnd implements MissObserver.
//
//smtlint:noalloc
func (d *dcraState) MissEnd(t int, _ int64) {
	d.ensure(t + 1)
	if d.outstanding[t] > 0 {
		d.outstanding[t]--
	}
}

//smtlint:noalloc
func (d *dcraState) weight(t int) int {
	d.ensure(t + 1)
	if d.outstanding[t] > 0 {
		if d.slowWeight > 0 {
			return d.slowWeight
		}
		return 2 // slow threads get a double share (simplified DCRA)
	}
	return 1
}

//smtlint:noalloc
func (d *dcraState) share(t, total, n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += d.weight(i)
	}
	s := total * d.weight(t) / sum
	if s < 1 {
		s = 1
	}
	return s
}

// DCRAIQ is a cluster-sensitive DCRA-style issue-queue policy: per cluster,
// a thread's cap is its DCRA share of the cluster's entries.
type DCRAIQ struct{ st *dcraState }

// NewDCRAIQ returns the DCRA issue-queue policy.
func NewDCRAIQ() IQPolicy { return &DCRAIQ{st: &dcraState{}} }

// Name implements IQPolicy.
func (*DCRAIQ) Name() string { return "dcra-iq" }

// Allows implements IQPolicy.
//
//smtlint:noalloc
func (p *DCRAIQ) Allows(t, c int, m Machine) bool {
	return m.IQOcc(c, t) < p.st.share(t, m.IQSize(), m.NumThreads())
}

// ForcedCluster implements IQPolicy.
//
//smtlint:noalloc
func (*DCRAIQ) ForcedCluster(int) (int, bool) { return 0, false }

// MissStart implements MissObserver.
//
//smtlint:noalloc
func (p *DCRAIQ) MissStart(t int, seq uint64, now int64) { p.st.MissStart(t, seq, now) }

// MissEnd implements MissObserver.
//
//smtlint:noalloc
func (p *DCRAIQ) MissEnd(t int, now int64) { p.st.MissEnd(t, now) }

// DCRARF is the cluster-insensitive DCRA-style register-file policy: a
// thread's cap is its DCRA share of the total registers of each kind.
type DCRARF struct{ st *dcraState }

// Name implements RFPolicy.
func (*DCRARF) Name() string { return "dcra-rf" }

// MayAllocate implements RFPolicy.
//
//smtlint:noalloc
func (p *DCRARF) MayAllocate(t int, k isa.RegKind, _ int, n int, m Machine) bool {
	return m.RFInUse(t, k)+n <= p.st.share(t, m.RFTotal(k), m.NumThreads())
}

// NoteStall implements RFPolicy.
//
//smtlint:noalloc
func (*DCRARF) NoteStall(int, isa.RegKind) {}

// EndCycle implements RFPolicy.
//
//smtlint:noalloc
func (*DCRARF) EndCycle(Machine) {}

// MissStart implements MissObserver.
//
//smtlint:noalloc
func (p *DCRARF) MissStart(t int, seq uint64, now int64) { p.st.MissStart(t, seq, now) }

// MissEnd implements MissObserver.
//
//smtlint:noalloc
func (p *DCRARF) MissEnd(t int, now int64) { p.st.MissEnd(t, now) }

// HillClimbIQ adapts the per-thread, per-cluster issue-queue partition by
// hill climbing on measured throughput (Choi & Yeung, ISCA'06, adapted to a
// cluster-sensitive partition per this paper's conclusion). Each epoch it
// perturbs thread 0's share by +/-delta and keeps the direction that
// improved committed throughput.
type HillClimbIQ struct {
	// Epoch is the adaptation period in cycles.
	Epoch int64
	// Delta is the share perturbation per epoch.
	Delta float64

	share     float64 // thread 0's fraction of each cluster's IQ
	dir       float64
	lastPerf  float64
	lastComm  uint64
	nextEpoch int64
	started   bool
}

// NewHillClimbIQ returns the hill-climbing issue-queue policy.
func NewHillClimbIQ() IQPolicy {
	return &HillClimbIQ{Epoch: 16 * 1024, Delta: 0.0625, share: 0.5, dir: 1}
}

// Name implements IQPolicy.
func (*HillClimbIQ) Name() string { return "hillclimb-iq" }

// Share returns thread 0's current share (exported for tests).
func (p *HillClimbIQ) Share() float64 { return p.share }

// Allows implements IQPolicy. With more than two threads the non-adapted
// threads split the remainder evenly.
//
//smtlint:noalloc
func (p *HillClimbIQ) Allows(t, c int, m Machine) bool {
	frac := p.share
	if t != 0 {
		frac = (1 - p.share) / float64(m.NumThreads()-1)
	}
	cap := int(frac * float64(m.IQSize()))
	if cap < 2 {
		cap = 2
	}
	return m.IQOcc(c, t) < cap
}

// ForcedCluster implements IQPolicy.
//
//smtlint:noalloc
func (*HillClimbIQ) ForcedCluster(int) (int, bool) { return 0, false }

// EndCycle implements CycleObserver: epoch-boundary hill climbing.
//
//smtlint:noalloc
func (p *HillClimbIQ) EndCycle(m Machine) {
	pr, ok := m.(PerfReader)
	if !ok {
		return
	}
	now := m.Now()
	if !p.started {
		p.started = true
		p.nextEpoch = now + p.Epoch
		return
	}
	if now < p.nextEpoch {
		return
	}
	committed := uint64(0)
	for t := 0; t < m.NumThreads(); t++ {
		committed += pr.Committed(t)
	}
	perf := float64(committed-p.lastComm) / float64(p.Epoch)
	p.lastComm = committed
	if perf < p.lastPerf {
		p.dir = -p.dir // last move hurt; reverse
	}
	p.lastPerf = perf
	p.share += p.dir * p.Delta
	const lo, hi = 0.25, 0.75
	if p.share < lo {
		p.share, p.dir = lo, 1
	}
	if p.share > hi {
		p.share, p.dir = hi, -1
	}
	p.nextEpoch = now + p.Epoch
}
