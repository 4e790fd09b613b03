package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"clustersmt/internal/frontend"
	"clustersmt/internal/isa"
	"clustersmt/internal/policy"
	"clustersmt/internal/steer"
	"clustersmt/internal/trace"
)

// drainAndCheckConservation runs a processor to completion and verifies
// that every leaked-looking resource is accounted for: issue queues empty,
// MOB empty, and every allocated physical register is reachable from some
// thread's RAT (committed architectural state).
func drainAndCheckConservation(t *testing.T, p *Processor) {
	t.Helper()
	st := p.Stats()
	for c := 0; c < p.cfg.NumClusters; c++ {
		if p.iqs[c].Len() != 0 {
			t.Errorf("cluster %d issue queue holds %d entries after drain", c, p.iqs[c].Len())
		}
	}
	if p.mobq.Used() != 0 {
		t.Errorf("MOB holds %d entries after drain", p.mobq.Used())
	}
	for _, ts := range p.threads {
		if ts.rob.Len() != 0 {
			t.Errorf("ROB holds %d entries after drain", ts.rob.Len())
		}
	}
	// Register conservation: allocated = live RAT mappings.
	for _, k := range []isa.RegKind{isa.IntReg, isa.FpReg} {
		live := 0
		for _, ts := range p.threads {
			for reg := int16(0); reg < isa.NumLogicalRegs; reg++ {
				m := ts.rat.Get(reg)
				for c := 0; c < p.cfg.NumClusters; c++ {
					if m.Valid[c] {
						live++
					}
				}
			}
		}
		allocated := 0
		for c := 0; c < p.cfg.NumClusters; c++ {
			allocated += p.rfs[c].Total(k) - p.rfs[c].FreeCount(k)
		}
		_ = live
		_ = allocated
	}
	// Joint conservation across kinds (RAT entries of both kinds).
	liveTotal := 0
	for _, ts := range p.threads {
		for reg := int16(0); reg < isa.NumLogicalRegs; reg++ {
			m := ts.rat.Get(reg)
			for c := 0; c < p.cfg.NumClusters; c++ {
				if m.Valid[c] {
					liveTotal++
				}
			}
		}
	}
	allocTotal := 0
	for c := 0; c < p.cfg.NumClusters; c++ {
		for _, k := range []isa.RegKind{isa.IntReg, isa.FpReg} {
			allocTotal += p.rfs[c].Total(k) - p.rfs[c].FreeCount(k)
		}
	}
	if liveTotal != allocTotal {
		t.Errorf("register leak: %d allocated, %d live in RATs", allocTotal, liveTotal)
	}
	if st.TotalCommitted() == 0 {
		t.Error("nothing committed")
	}
}

func TestResourceConservationAllSchemes(t *testing.T) {
	for _, scheme := range policy.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.RunToCompletion = true
			cfg.MaxCycles = 3_000_000
			p, err := NewScheme(cfg, scheme, testPrograms(t, 4000))
			if err != nil {
				t.Fatal(err)
			}
			p.Run()
			if !p.Done() {
				t.Fatal("run did not complete")
			}
			drainAndCheckConservation(t, p)
		})
	}
}

// TestResourceConservationClusterCounts runs the conservation suite on the
// swept machine shapes: every validated cluster count that is not the
// Table 1 default, the representative scheme trio, and (at four clusters) a
// slow-memory shape that grows the completion wheel past 256 slots.
func TestResourceConservationClusterCounts(t *testing.T) {
	for _, clusters := range []int{1, 3, 4} {
		for _, scheme := range []string{"icount", "cssp", "cdprf"} {
			clusters, scheme := clusters, scheme
			t.Run(fmt.Sprintf("c%d/%s", clusters, scheme), func(t *testing.T) {
				cfg := DefaultConfig(2)
				cfg.NumClusters = clusters
				cfg.RunToCompletion = true
				cfg.MaxCycles = 3_000_000
				if clusters == 4 {
					cfg.Cache.MemLatency = 300 // wheel grows to 512 slots
				}
				p, err := NewScheme(cfg, scheme, testPrograms(t, 3000))
				if err != nil {
					t.Fatal(err)
				}
				p.Run()
				if !p.Done() {
					t.Fatal("run did not complete")
				}
				drainAndCheckConservation(t, p)
			})
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		cfg := DefaultConfig(2)
		cfg.MaxCycles = 2_000_000
		p, err := NewScheme(cfg, "cdprf", testPrograms(t, 6000))
		if err != nil {
			t.Fatal(err)
		}
		return p.Run().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("non-deterministic simulation:\n%s\n%s", a, b)
	}
}

func TestCommittedMatchesTraceOnCompletion(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RunToCompletion = true
	cfg.MaxCycles = 3_000_000
	const n = 3000
	p, err := NewScheme(cfg, "icount", testPrograms(t, n))
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run()
	for tid, c := range st.Committed {
		if c != n {
			t.Errorf("thread %d committed %d of %d trace uops", tid, c, n)
		}
	}
}

func TestSingleThreadFasterThanShared(t *testing.T) {
	prof := trace.ILPProfile("inv.ilp")
	g1 := trace.NewGenerator(prof, 5)
	single := []ThreadProgram{{Trace: g1.Generate(20000), Profile: prof, Seed: 1}}
	cfgS := DefaultConfig(1)
	cfgS.MaxCycles = 3_000_000
	ps, err := NewScheme(cfgS, "icount", single)
	if err != nil {
		t.Fatal(err)
	}
	ipcAlone := ps.Run().ThreadIPC(0)

	pd, err := NewScheme(func() Config { c := DefaultConfig(2); c.MaxCycles = 3_000_000; return c }(), "icount", testPrograms(t, 20000))
	if err != nil {
		t.Fatal(err)
	}
	std := pd.Run()
	if std.ThreadIPC(0) >= ipcAlone {
		t.Errorf("sharing the machine should slow a thread down: alone %.3f, shared %.3f",
			ipcAlone, std.ThreadIPC(0))
	}
}

func TestPCSchemeNeverCopies(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 2_000_000
	p, err := NewScheme(cfg, "pc", testPrograms(t, 8000))
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run()
	if st.CopiesGenerated != 0 || st.CopyTransfers != 0 {
		t.Errorf("private clusters generated %d copies", st.CopiesGenerated)
	}
}

func TestCSSPRespectsPerClusterCap(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 500_000
	p, err := NewScheme(cfg, "cssp", testPrograms(t, 8000))
	if err != nil {
		t.Fatal(err)
	}
	cap := cfg.IQSize / cfg.NumThreads
	for i := 0; i < 50_000 && !p.Done(); i++ {
		p.Step()
		for c := 0; c < cfg.NumClusters; c++ {
			for th := 0; th < cfg.NumThreads; th++ {
				// Copies are exempt from the cap (DESIGN.md); count
				// non-copy entries only.
				nonCopy := 0
				p.iqs[c].Scan(func(e *frontend.ROBEntry, thread int) bool {
					if thread == th && !e.IsCopy() {
						nonCopy++
					}
					return true
				})
				if nonCopy > cap {
					t.Fatalf("cycle %d: thread %d holds %d non-copy entries in cluster %d (cap %d)",
						i, th, nonCopy, c, cap)
				}
			}
		}
	}
}

func TestUnboundedConfigNeverRFStalls(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.IntRegsPerCluster = 0
	cfg.FpRegsPerCluster = 0
	cfg.ROBPerThread = 0
	cfg.MaxCycles = 2_000_000
	p, err := NewScheme(cfg, "icount", testPrograms(t, 8000))
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run()
	if st.RFStalls != 0 || st.ROBStalls != 0 {
		t.Errorf("unbounded run recorded rf=%d rob=%d stalls", st.RFStalls, st.ROBStalls)
	}
}

func TestWarmupReducesReportedCycles(t *testing.T) {
	mk := func(warm uint64) *Processor {
		cfg := DefaultConfig(2)
		cfg.WarmupUops = warm
		cfg.MaxCycles = 3_000_000
		p, err := NewScheme(cfg, "icount", testPrograms(t, 10000))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	full := mk(0).Run().Cycles
	warmed := mk(2000).Run().Cycles
	if warmed >= full {
		t.Errorf("warmup did not shrink the measured window: %d vs %d", warmed, full)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumClusters = 0 },
		func(c *Config) { c.NumClusters = 9 },
		func(c *Config) { c.NumThreads = 0 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.IQSize = 1 },
		func(c *Config) { c.MOBSize = 0 },
		func(c *Config) { c.ROBPerThread = -1 },
		func(c *Config) { c.MispredictPenalty = -1 },
		// Worst-case completion latency beyond the event-wheel hard cap
		// must be rejected, not silently clamped mid-run.
		func(c *Config) { c.Cache.MemLatency = maxWheelSize },
		func(c *Config) { c.Net.Latency = maxWheelSize },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(2)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	good := DefaultConfig(2)
	if err := good.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	// A large-but-modelable memory latency is exactly what the sweep axes
	// exist for; the wheel sizes itself to fit it.
	slow := DefaultConfig(2)
	slow.Cache.MemLatency = 300
	if err := slow.Validate(); err != nil {
		t.Errorf("MemLatency=300 rejected: %v", err)
	}
	if got := wheelSizeFor(&slow); got < int64(slow.WorstCaseLatency()) {
		t.Errorf("wheel %d slots cannot hold worst-case latency %d", got, slow.WorstCaseLatency())
	}
}

// TestWheelRejectionMessage pins the contract of the bugfix: a swept
// MemLatency the wheel cannot model fails Validate with an explanation, it
// does not silently complete loads early.
func TestWheelRejectionMessage(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Cache.MemLatency = 1 << 17
	err := cfg.Validate()
	if err == nil {
		t.Fatal("oversized MemLatency accepted")
	}
	for _, want := range []string{"worst-case completion latency", "event-wheel capacity"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestNewErrors(t *testing.T) {
	cfg := DefaultConfig(2)
	if _, err := NewScheme(cfg, "nope", testPrograms(t, 100)); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := NewScheme(cfg, "icount", nil); err == nil {
		t.Error("program/thread count mismatch accepted")
	}
}

func TestAlternativeSteering(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.MaxCycles = 2_000_000
	s, err := policy.Lookup("icount")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []steer.Steerer{steer.NewRoundRobin(2), steer.Modulo{}} {
		sel, iq, rf := s.New(2)
		p, err := New(cfg, sel, iq, rf, st, testPrograms(t, 4000))
		if err != nil {
			t.Fatal(err)
		}
		res := p.Run()
		if res.TotalCommitted() == 0 {
			t.Errorf("steering %s committed nothing", st.Name())
		}
	}
}

// Property: arbitrary small configurations and scheme choices never panic
// and always commit work.
func TestRandomConfigProperty(t *testing.T) {
	names := policy.Names()
	f := func(iq, regs, rob, schemeIdx uint8) bool {
		cfg := DefaultConfig(2)
		cfg.IQSize = 8 + int(iq%64)
		cfg.IntRegsPerCluster = 48 + int(regs%128)
		cfg.FpRegsPerCluster = 48 + int(regs%128)
		cfg.ROBPerThread = 32 + int(rob%128)
		cfg.MaxCycles = 1_000_000
		p, err := NewScheme(cfg, names[int(schemeIdx)%len(names)], testPrograms(t, 1500))
		if err != nil {
			return false
		}
		st := p.Run()
		return st.TotalCommitted() > 0 && st.Cycles < cfg.MaxCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
