package cachesim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func small() *Hierarchy {
	cfg := DefaultConfig()
	return New(cfg)
}

func TestFirstAccessMissesToMemory(t *testing.T) {
	h := small()
	res := h.Access(0x1000, 0)
	if res.Level != MemHit {
		t.Fatalf("cold access level %v", res.Level)
	}
	want := int64(0) + int64(h.cfg.DTLBMissCycles+h.cfg.L1Latency+h.cfg.L2Latency+h.cfg.MemLatency)
	if res.DoneAt != want {
		t.Errorf("DoneAt %d, want %d (includes cold TLB miss)", res.DoneAt, want)
	}
	if !res.TLBMiss {
		t.Error("first touch should miss the DTLB")
	}
}

func TestRereferenceHitsL1(t *testing.T) {
	h := small()
	done := h.Access(0x1000, 0).DoneAt
	res := h.Access(0x1008, done) // same line, after the fill completed
	if res.Level != L1Hit {
		t.Fatalf("re-reference level %v", res.Level)
	}
	if res.DoneAt != done+int64(h.cfg.L1Latency) {
		t.Errorf("L1 hit latency wrong: %d", res.DoneAt)
	}
}

func TestCoalescingWithInflightLine(t *testing.T) {
	h := small()
	first := h.Access(0x2000, 0)
	second := h.Access(0x2010, 1) // same 64B line while fill in flight
	if second.DoneAt != first.DoneAt {
		t.Errorf("coalesced access completes at %d, want %d", second.DoneAt, first.DoneAt)
	}
	if h.Stats().Coalesced != 1 {
		t.Errorf("coalesced count %d", h.Stats().Coalesced)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg)
	now := int64(0)
	// Fill one L1 set beyond its associativity. L1: 32KB/64B/2-way = 256
	// sets; addresses with identical set index differ by 256*64 = 16384.
	stride := uint64(cfg.L1Size / cfg.L1Assoc)
	addrs := []uint64{0, stride, 2 * stride}
	for _, a := range addrs {
		res := h.Access(a, now)
		now = res.DoneAt + 1
	}
	// addrs[0] was evicted from L1 (LRU) but must still be in L2.
	res := h.Access(addrs[0], now)
	if res.Level != L2Hit {
		t.Fatalf("expected L2 hit after L1 eviction, got %v", res.Level)
	}
}

func TestLRUReplacement(t *testing.T) {
	var c setAssocCache
	c.reset(4, 2, 6) // 2 sets, 2 ways
	// Two lines in set 0: blocks 0 and 2 (set = block & 1).
	c.access(0<<6, 0)
	c.access(2<<6, 1)
	c.access(0<<6, 2) // touch block 0: block 2 becomes LRU
	c.access(4<<6, 3) // evicts block 2
	if !c.probe(0 << 6) {
		t.Error("block 0 should have survived (MRU)")
	}
	if c.probe(2 << 6) {
		t.Error("block 2 should have been evicted (LRU)")
	}
	if !c.probe(4 << 6) {
		t.Error("block 4 should be resident")
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	h := small()
	if h.ProbeL1(0x3000) || h.ProbeL2(0x3000) {
		t.Fatal("probe of untouched address reports presence")
	}
	if h.Stats().L1Accesses != 0 {
		t.Error("probe counted as access")
	}
}

func TestPortsPerCycle(t *testing.T) {
	h := small()
	if !h.TryReadPort(5) || !h.TryReadPort(5) {
		t.Fatal("two read ports should be grantable")
	}
	if h.TryReadPort(5) {
		t.Fatal("third read port granted")
	}
	if !h.TryWritePort(5) || !h.TryWritePort(5) || h.TryWritePort(5) {
		t.Fatal("write port accounting wrong")
	}
	// New cycle resets.
	if !h.TryReadPort(6) {
		t.Fatal("ports did not reset on new cycle")
	}
}

func TestMSHRLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	h := New(cfg)
	h.Access(0x10000, 0)
	h.Access(0x20000, 0)
	if h.MSHRAvailable(0) {
		t.Fatal("MSHRs should be exhausted")
	}
	// After the fills complete, entries are reclaimed lazily.
	if !h.MSHRAvailable(1000) {
		t.Fatal("MSHRs not reclaimed after completion")
	}
}

func TestTLBMissOnlyOncePerPage(t *testing.T) {
	h := small()
	done := h.Access(0x4000, 0).DoneAt
	res := h.Access(0x4008, done+1)
	if res.TLBMiss {
		t.Error("second access to the same page missed the TLB")
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := small()
	now := int64(0)
	for i := 0; i < 10; i++ {
		res := h.Access(uint64(i)*64*1024, now)
		now = res.DoneAt + 1
	}
	st := h.Stats()
	if st.L1Accesses != 10 || st.L1Misses != 10 || st.L2Misses != 10 {
		t.Errorf("stats %+v", st)
	}
}

func TestReset(t *testing.T) {
	h := small()
	h.Access(0x1000, 0)
	h.Reset(h.Config())
	if h.Stats().L1Accesses != 0 {
		t.Error("stats survive Reset")
	}
	if h.ProbeL1(0x1000) {
		t.Error("contents survive Reset")
	}
}

// replay drives a fixed pseudo-random load stream over an 8 MB footprint,
// twice the L2, through h with port and MSHR arbitration, and returns
// every result followed by the final counters.
func replay(h *Hierarchy) ([]Result, Stats) {
	var out []Result
	x := uint64(1)
	for now := int64(0); now < 20000; now++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 20) % (8 << 20)
		if h.MSHRAvailable(now) && h.TryReadPort(now) {
			out = append(out, h.Access(addr, now))
		}
	}
	return out, h.Stats()
}

// TestRecycledMatchesFresh checks that a hierarchy Reset in place after a
// run, whether to its own configuration or from another geometry, replays
// a stream exactly like a freshly allocated hierarchy, and that a Reset
// which keeps the geometry does not allocate.
func TestRecycledMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	want, wantStats := replay(New(cfg))
	other := cfg
	other.L2Size, other.L2Assoc, other.MemLatency, other.MSHRs = 1<<20, 4, 400, 4

	for _, tc := range []struct {
		name string
		from Config
	}{{"recycled", cfg}, {"reshaped", other}} {
		h := New(tc.from)
		replay(h)
		h.Reset(cfg)
		got, gotStats := replay(h)
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Errorf("%s: replay differs from a fresh hierarchy: stats %+v, want %+v", tc.name, gotStats, wantStats)
		}
	}
	if wantStats.L2Misses == 0 || wantStats.Coalesced == 0 {
		t.Errorf("stream never misses the L2 or coalesces: %+v", wantStats)
	}

	h := New(cfg)
	replay(h)
	slow := cfg
	slow.MemLatency, slow.MSHRs = 400, 4
	for _, c := range []Config{cfg, slow} {
		if allocs := testing.AllocsPerRun(5, func() { h.Reset(c) }); allocs != 0 {
			t.Errorf("Reset to %+v allocates %.0f times, want 0", c, allocs)
		}
	}
}

// TestRecycledConcurrently passes hierarchies between goroutines through a
// shared free list, as a runner's spare machines move between its
// simulating goroutines, so the race detector sees arrays change hands.
func TestRecycledConcurrently(t *testing.T) {
	cfg := DefaultConfig()
	want, wantStats := replay(New(cfg))
	free := make(chan *Hierarchy, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				var h *Hierarchy
				select {
				case h = <-free:
					h.Reset(cfg)
				default:
					h = New(cfg)
				}
				got, gotStats := replay(h)
				free <- h
				if !reflect.DeepEqual(got, want) || gotStats != wantStats {
					t.Errorf("round %d: replay differs from a fresh hierarchy", round)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDefaultsFilled(t *testing.T) {
	h := New(Config{})
	if h.Config().L1Size != 32<<10 || h.Config().L2Size != 4<<20 {
		t.Errorf("Table 1 defaults not applied: %+v", h.Config())
	}
}

// Property: every access completes strictly after it starts and never
// earlier than the L1 latency.
func TestCompletionMonotoneProperty(t *testing.T) {
	h := small()
	now := int64(0)
	f := func(addr uint64) bool {
		res := h.Access(addr%(1<<30), now)
		ok := res.DoneAt >= now+int64(h.cfg.L1Latency)
		now++
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: hit level ordering is consistent — an address that just hit L1
// hits L1 again immediately.
func TestL1HitStableProperty(t *testing.T) {
	h := small()
	// The clock only moves forward across iterations: restarting at a fixed
	// cycle could issue an access while an earlier fill of the same line is
	// still outstanding in the MSHR, which the hierarchy never sees in use.
	now := int64(1000)
	f := func(addr uint64) bool {
		a := addr % (1 << 24)
		r1 := h.Access(a, now)
		r2 := h.Access(a, r1.DoneAt+1)
		now = r2.DoneAt + 1
		return r2.Level == L1Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestLevelString(t *testing.T) {
	if L1Hit.String() != "L1" || L2Hit.String() != "L2" || MemHit.String() != "mem" {
		t.Error("level names wrong")
	}
}
