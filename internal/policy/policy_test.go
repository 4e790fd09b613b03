package policy

import (
	"testing"

	"clustersmt/internal/isa"
)

// fakeMachine is a scriptable policy.Machine for unit tests.
type fakeMachine struct {
	threads, clusters int
	iqSize            int
	iqFree            []int
	iqOcc             [][]int // [cluster][thread]
	rfClusterTotal    [isa.NumRegKinds]int
	rfClusterFree     [][]int // [cluster][kind]
	rfClusterInUse    [][][]int
	now               int64
	committed         []uint64
}

func newFake(threads, clusters, iqSize, regs int) *fakeMachine {
	m := &fakeMachine{threads: threads, clusters: clusters, iqSize: iqSize, now: 0}
	m.iqFree = make([]int, clusters)
	m.iqOcc = make([][]int, clusters)
	m.rfClusterFree = make([][]int, clusters)
	m.rfClusterInUse = make([][][]int, clusters)
	for c := 0; c < clusters; c++ {
		m.iqFree[c] = iqSize
		m.iqOcc[c] = make([]int, threads)
		m.rfClusterFree[c] = []int{regs, regs}
		m.rfClusterInUse[c] = make([][]int, isa.NumRegKinds)
		for k := range m.rfClusterInUse[c] {
			m.rfClusterInUse[c][k] = make([]int, threads)
		}
	}
	m.rfClusterTotal = [isa.NumRegKinds]int{regs, regs}
	m.committed = make([]uint64, threads)
	return m
}

func (m *fakeMachine) NumThreads() int                  { return m.threads }
func (m *fakeMachine) NumClusters() int                 { return m.clusters }
func (m *fakeMachine) IQSize() int                      { return m.iqSize }
func (m *fakeMachine) IQFree(c int) int                 { return m.iqFree[c] }
func (m *fakeMachine) IQOcc(c, t int) int               { return m.iqOcc[c][t] }
func (m *fakeMachine) RFClusterTotal(k isa.RegKind) int { return m.rfClusterTotal[k] }
func (m *fakeMachine) RFClusterInUse(c, t int, k isa.RegKind) int {
	return m.rfClusterInUse[c][int(k)][t]
}
func (m *fakeMachine) RFTotal(k isa.RegKind) int { return m.rfClusterTotal[k] * m.clusters }
func (m *fakeMachine) RFFree(k isa.RegKind) int {
	total := 0
	for c := 0; c < m.clusters; c++ {
		total += m.rfClusterFree[c][int(k)]
	}
	return total
}
func (m *fakeMachine) RFInUse(t int, k isa.RegKind) int {
	total := 0
	for c := 0; c < m.clusters; c++ {
		total += m.rfClusterInUse[c][int(k)][t]
	}
	return total
}
func (m *fakeMachine) Now() int64             { return m.now }
func (m *fakeMachine) Committed(t int) uint64 { return m.committed[t] }

var _ Machine = (*fakeMachine)(nil)
var _ PerfReader = (*fakeMachine)(nil)

func TestCISPCap(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewCISP()
	// Cap = 2*32/2 = 32 entries total per thread, any cluster.
	m.iqOcc[0][0], m.iqOcc[1][0] = 20, 11 // 31 total
	if !p.Allows(0, 0, m) {
		t.Fatal("31 entries should be allowed")
	}
	m.iqOcc[1][0] = 12 // 32 total
	if p.Allows(0, 0, m) || p.Allows(0, 1, m) {
		t.Fatal("thread at total cap must be blocked in both clusters")
	}
	if !p.Allows(1, 0, m) {
		t.Fatal("other thread must stay unaffected")
	}
}

func TestCSSPCap(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewCSSP()
	m.iqOcc[0][0] = 16 // half of cluster 0
	if p.Allows(0, 0, m) {
		t.Fatal("thread at per-cluster cap must be blocked there")
	}
	if !p.Allows(0, 1, m) {
		t.Fatal("same thread must be allowed in the other cluster")
	}
}

func TestCSPSPGuarantee(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewCSPSP()
	// Thread 1 holds nothing: its 8-entry guarantee must survive. With
	// 9 free entries, thread 0 can take exactly one more.
	m.iqOcc[0][0] = 23
	m.iqFree[0] = 9
	if !p.Allows(0, 0, m) {
		t.Fatal("one entry above the guarantee boundary should be allowed")
	}
	m.iqOcc[0][0] = 24
	m.iqFree[0] = 8
	if p.Allows(0, 0, m) {
		t.Fatal("eating into the other thread's guarantee must be blocked")
	}
	// Once thread 1 uses its guarantee, the space is free game.
	m.iqOcc[0][1] = 8
	m.iqFree[0] = 8
	if !p.Allows(0, 0, m) {
		t.Fatal("used guarantees must not be double-reserved")
	}
}

func TestPCBinding(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewPC()
	if !p.Allows(0, 0, m) || p.Allows(0, 1, m) {
		t.Fatal("thread 0 must be bound to cluster 0")
	}
	if !p.Allows(1, 1, m) || p.Allows(1, 0, m) {
		t.Fatal("thread 1 must be bound to cluster 1")
	}
	if c, ok := p.ForcedCluster(1); !ok || c%2 != 1 {
		t.Fatal("PC must force the home cluster")
	}
	if _, ok := NewCSSP().ForcedCluster(0); ok {
		t.Fatal("CSSP must not force a cluster")
	}
}

func TestUnrestricted(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewUnrestricted()
	m.iqOcc[0][0] = 31
	if !p.Allows(0, 0, m) {
		t.Fatal("unrestricted must always allow")
	}
}

func TestStallSelector(t *testing.T) {
	s := NewStall(2)
	m := newFake(2, 2, 32, 64)
	if !s.Eligible(0, m) {
		t.Fatal("thread with no misses must be eligible")
	}
	s.MissStart(0, 10, 100)
	if s.Eligible(0, m) {
		t.Fatal("missing thread must be blocked")
	}
	if !s.Eligible(1, m) {
		t.Fatal("other thread must stay eligible")
	}
	s.MissStart(0, 11, 101)
	s.MissEnd(0, 150)
	if s.Eligible(0, m) {
		t.Fatal("one of two misses resolved: still blocked")
	}
	s.MissEnd(0, 160)
	if !s.Eligible(0, m) {
		t.Fatal("all misses resolved: eligible again")
	}
	if _, _, ok := s.PendingFlush(); ok {
		t.Fatal("stall must never request a flush")
	}
}

func TestFlushPlusSingleMiss(t *testing.T) {
	f := NewFlushPlus(2).(*FlushPlus)
	m := newFake(2, 2, 32, 64)
	f.MissStart(0, 42, 100)
	th, seq, ok := f.PendingFlush()
	if !ok || th != 0 || seq != 42 {
		t.Fatalf("flush request %d/%d/%v", th, seq, ok)
	}
	f.FlushDone(0)
	if _, _, ok := f.PendingFlush(); ok {
		t.Fatal("flush must be one-shot")
	}
	if f.Eligible(0, m) {
		t.Fatal("flushed thread must be blocked while missing alone")
	}
	f.MissEnd(0, 200)
	if !f.Eligible(0, m) {
		t.Fatal("thread must resume after the miss resolves")
	}
}

func TestFlushPlusEarliestContinues(t *testing.T) {
	f := NewFlushPlus(2).(*FlushPlus)
	m := newFake(2, 2, 32, 64)
	f.MissStart(0, 10, 100) // thread 0 misses first
	f.FlushDone(0)
	f.MissStart(1, 20, 150) // now thread 1 misses too
	f.FlushDone(1)
	// The Flush+ refinement: with two missing threads, the one that
	// missed first continues.
	if !f.Eligible(0, m) {
		t.Fatal("earliest misser must be allowed to continue")
	}
	if f.Eligible(1, m) {
		t.Fatal("later misser must stay blocked")
	}
	// When the earliest miss resolves, thread 1 is the only misser and
	// goes back to being blocked alone.
	f.MissEnd(0, 200)
	if !f.Eligible(0, m) || f.Eligible(1, m) {
		t.Fatal("post-resolution eligibility wrong")
	}
}

func TestIcountSelectorTrivial(t *testing.T) {
	s := NewIcount(2)
	m := newFake(2, 2, 32, 64)
	if !s.Eligible(0, m) || !s.Eligible(1, m) {
		t.Fatal("icount must not block")
	}
	s.MissStart(0, 1, 1)
	if !s.Eligible(0, m) {
		t.Fatal("icount ignores misses")
	}
}

func TestCSSPRFCap(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewCSSPRF(DefaultRFConfig(2))
	m.rfClusterInUse[0][int(isa.IntReg)][0] = 30
	if !p.MayAllocate(0, isa.IntReg, 0, 2, m) {
		t.Fatal("30+2 <= 32 must be allowed")
	}
	if p.MayAllocate(0, isa.IntReg, 0, 3, m) {
		t.Fatal("30+3 > 32 must be blocked")
	}
	if !p.MayAllocate(0, isa.IntReg, 1, 3, m) {
		t.Fatal("other cluster unaffected (cluster-sensitive)")
	}
}

func TestCISPRFCap(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewCISPRF(DefaultRFConfig(2))
	m.rfClusterInUse[0][int(isa.IntReg)][0] = 40
	m.rfClusterInUse[1][int(isa.IntReg)][0] = 23 // 63 of 64 allowed
	if !p.MayAllocate(0, isa.IntReg, 0, 1, m) {
		t.Fatal("63+1 <= 64 must be allowed")
	}
	if p.MayAllocate(0, isa.IntReg, 1, 2, m) {
		t.Fatal("63+2 > 64 must be blocked regardless of cluster")
	}
	if !p.MayAllocate(0, isa.FpReg, 0, 2, m) {
		t.Fatal("kinds are accounted independently")
	}
}

func TestCDPRFStartsAtEvenSplit(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewCDPRF(DefaultRFConfig(2)).(*CDPRF)
	p.EndCycle(m)
	if p.Threshold(0, isa.IntReg) != 64 {
		t.Fatalf("initial threshold %d, want 64 (total/2)", p.Threshold(0, isa.IntReg))
	}
}

func TestCDPRFAdaptsToUsage(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	cfg := DefaultRFConfig(2)
	cfg.Interval = 100
	p := NewCDPRF(cfg).(*CDPRF)
	// Thread 0 uses 40 int regs steadily, thread 1 uses 4.
	m.rfClusterInUse[0][int(isa.IntReg)][0] = 40
	m.rfClusterInUse[0][int(isa.IntReg)][1] = 4
	for i := 0; i < 101; i++ {
		m.now++
		p.EndCycle(m)
	}
	if got := p.Threshold(0, isa.IntReg); got != 40 {
		t.Errorf("thread 0 threshold %d, want 40 (its average occupancy)", got)
	}
	if got := p.Threshold(1, isa.IntReg); got != 4 {
		t.Errorf("thread 1 threshold %d, want 4", got)
	}
	// Above its threshold, thread 0 may take free registers as long as
	// thread 1's small guarantee stays coverable.
	m.rfClusterFree[0][int(isa.IntReg)] = 24
	m.rfClusterFree[1][int(isa.IntReg)] = 60
	if !p.MayAllocate(0, isa.IntReg, 0, 10, m) {
		t.Error("above-threshold allocation with ample free regs blocked")
	}
	// If free registers barely cover the other thread's guarantee,
	// above-threshold allocation must be rejected.
	m.rfClusterFree[0][int(isa.IntReg)] = 0
	m.rfClusterFree[1][int(isa.IntReg)] = 0
	if p.MayAllocate(0, isa.IntReg, 0, 1, m) {
		t.Error("allocation with nothing to spare allowed")
	}
}

func TestCDPRFThresholdCappedAtHalf(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	cfg := DefaultRFConfig(2)
	cfg.Interval = 50
	p := NewCDPRF(cfg).(*CDPRF)
	m.rfClusterInUse[0][int(isa.IntReg)][0] = 60
	m.rfClusterInUse[1][int(isa.IntReg)][0] = 60 // 120 of 128 total
	for i := 0; i < 51; i++ {
		m.now++
		p.EndCycle(m)
	}
	if got := p.Threshold(0, isa.IntReg); got != 64 {
		t.Errorf("threshold %d, want capped at 64 (total/2): private regions above half are unfair", got)
	}
}

func TestCDPRFStarvationGrowsThreshold(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	cfg := DefaultRFConfig(2)
	cfg.Interval = 100
	p := NewCDPRF(cfg).(*CDPRF)
	// Thread 0 holds nothing but is starved every cycle: RFOC accumulates
	// the growing starvation counter (1+2+...+100 = 5050), so the next
	// threshold is ~50 even with zero occupancy (Fig. 7 semantics).
	for i := 0; i < 101; i++ {
		m.now++
		p.NoteStall(0, isa.IntReg)
		p.EndCycle(m)
	}
	if got := p.Threshold(0, isa.IntReg); got < 40 {
		t.Errorf("starved thread threshold %d, want ~50 (starvation boost)", got)
	}
	if p.Starvation(0, isa.IntReg) == 0 {
		t.Error("starvation counter should be non-zero while stalled")
	}
	// One unstalled cycle resets the starvation counter.
	m.now++
	p.EndCycle(m)
	if p.Starvation(0, isa.IntReg) != 0 {
		t.Error("starvation counter must reset when not stalled")
	}
}

func TestSchemeRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		sel, iq, rf := s.New(2)
		if sel == nil || iq == nil || rf == nil {
			t.Fatalf("scheme %s produced nil components", name)
		}
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Error("unknown scheme should error")
	}
	if len(PaperIQSchemes()) != 7 || len(PaperRFSchemes()) != 3 {
		t.Error("paper scheme lists wrong length")
	}
}

func TestSchemeComposition(t *testing.T) {
	cases := map[string][3]string{
		"icount": {"icount", "unrestricted", "none"},
		"stall":  {"stall", "unrestricted", "none"},
		"flush+": {"flush+", "unrestricted", "none"},
		"cssp":   {"icount", "cssp", "none"},
		"cdprf":  {"icount", "cssp", "cdprf"},
		"cisprf": {"icount", "cssp", "cisprf"},
		"cssprf": {"icount", "cssp", "cssprf"},
	}
	for name, want := range cases {
		s, _ := Lookup(name)
		sel, iq, rf := s.New(2)
		if sel.Name() != want[0] || iq.Name() != want[1] || rf.Name() != want[2] {
			t.Errorf("%s = %s+%s+%s, want %v", name, sel.Name(), iq.Name(), rf.Name(), want)
		}
	}
}

func TestDCRAShiftsShares(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	p := NewDCRAIQ().(*DCRAIQ)
	// Without misses, both threads get half of each cluster.
	m.iqOcc[0][0] = 15
	if !p.Allows(0, 0, m) {
		t.Fatal("under-share allocation blocked")
	}
	m.iqOcc[0][0] = 16
	if p.Allows(0, 0, m) {
		t.Fatal("even share is 16 of 32")
	}
	// Thread 0 becomes slow (L2 miss): its share grows to 2/3.
	p.MissStart(0, 1, 10)
	if !p.Allows(0, 0, m) {
		t.Fatal("slow thread share should grow")
	}
	m.iqOcc[0][0] = 21
	if p.Allows(0, 0, m) {
		t.Fatal("slow-thread share is 21 of 32")
	}
	p.MissEnd(0, 50)
	m.iqOcc[0][0] = 16
	if p.Allows(0, 0, m) {
		t.Fatal("share should shrink back after the miss")
	}
}

func TestHillClimbAdapts(t *testing.T) {
	p := NewHillClimbIQ().(*HillClimbIQ)
	p.Epoch = 10
	m := newFake(2, 2, 32, 64)
	start := p.Share()
	// Monotonically growing committed counts: every epoch looks like an
	// improvement, so the share keeps moving one direction until clamped.
	for i := 0; i < 200; i++ {
		m.now++
		m.committed[0] += uint64(2 + i/10)
		m.committed[1] += 1
		p.EndCycle(m)
	}
	if p.Share() == start {
		t.Error("hill climber never moved the share")
	}
	if p.Share() < 0.25 || p.Share() > 0.75 {
		t.Errorf("share %v escaped its clamp", p.Share())
	}
}

func TestIQTotalOcc(t *testing.T) {
	m := newFake(2, 2, 32, 64)
	m.iqOcc[0][1] = 5
	m.iqOcc[1][1] = 7
	if IQTotalOcc(m, 1) != 12 {
		t.Errorf("IQTotalOcc = %d", IQTotalOcc(m, 1))
	}
}
