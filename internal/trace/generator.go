package trace

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/xrand"
)

// Generator produces a deterministic uop stream from a Profile.
//
// It maintains a tiny architectural model so that streams are plausible:
// register producers are tracked per kind so dependency distances follow
// the profile's geometric distribution, memory addresses follow a
// stride-plus-random pattern over the working set, and branch outcomes are
// drawn per static site with the configured bias.
type Generator struct {
	prof Profile
	rng  xrand.Rand

	// weights for class selection, indexed by generated class order;
	// weightSum is their fixed left-to-right float64 sum, precomputed so
	// each class draw skips re-summing.
	weights   [6]float64
	weightSum float64

	// recent[k] is a circular buffer of recently written logical registers
	// of kind k, used to realize dependency distances. recentHead[k] is the
	// index of the most recent producer, recentLen[k] the filled length.
	recent     [isa.NumRegKinds][16]int16
	recentHead [isa.NumRegKinds]int
	recentLen  [isa.NumRegKinds]int

	// sites holds one state per static branch, each a loop branch plus
	// per-outcome noise; site i's PC is branchBase + 16*i.
	sites []branchSite

	// pcIdx is the next non-branch PC's slot in the code footprint: PCs
	// run codeBase, codeBase+4, ... and wrap after CodeFootprint slots.
	pcIdx int

	// memory address state
	nextStride uint64
	siteCursor int
	// lastColdDest is the destination register of the previous cold load,
	// used to build pointer-chase dependence chains; -1 before the first.
	lastColdDest int16

	// round-robin destination allocation cursor per kind; writing
	// registers in rotation keeps all architectural registers live,
	// matching compiler register allocation pressure.
	dstCursor [isa.NumRegKinds]int
}

// branchSite is one static branch's loop pattern: the dominant outcome
// period-1 times, then the exit outcome. takenBiased selects the dominant
// direction; count is the site's running execution count.
type branchSite struct {
	period, count int
	takenBiased   bool
}

// Synthetic PC layout: branch sites from branchBase, 16 bytes apart;
// other uops from codeBase, 4 bytes apart.
const (
	branchBase = 0x400000
	codeBase   = 0x500000
)

// genClasses is the class order matching Generator.weights.
var genClasses = []isa.Class{isa.Int, isa.IntMul, isa.Fp, isa.Load, isa.Store, isa.Branch}

// NewGenerator returns a generator for prof seeded with seed.
// It panics if the profile fails validation; callers construct profiles from
// the workload tables, which are validated by tests.
func NewGenerator(prof Profile, seed uint64) *Generator {
	g := &Generator{}
	g.reset(prof, seed)
	return g
}

// reset makes g the generator NewGenerator(prof, seed) returns, reusing
// its branch-site array when that is large enough.
func (g *Generator) reset(prof Profile, seed uint64) {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	sites := g.sites
	*g = Generator{
		prof: prof,
		rng:  *xrand.New(seed),
		weights: [6]float64{
			prof.MixInt, prof.MixIntMul, prof.MixFp,
			prof.MixLoad, prof.MixStore, prof.MixBranch,
		},
	}
	for _, w := range g.weights {
		g.weightSum += w
	}
	sm := seed ^ 0xc0dec0dec0dec0de
	if cap(sites) < prof.NumBranchSites {
		sites = make([]branchSite, prof.NumBranchSites)
	}
	g.sites = sites[:prof.NumBranchSites]
	biasRng := xrand.New(xrand.SplitMix64(&sm))
	basePeriod := int(1/(1-prof.BranchBias) + 0.5)
	if prof.BranchBias >= 1 {
		basePeriod = 1 << 20 // effectively never exits
	}
	if basePeriod < 2 {
		basePeriod = 2
	}
	for i := range g.sites {
		// Jitter the loop period per site and start each site at a random
		// phase; half the sites are taken-biased loops, half mirrored.
		p := basePeriod + biasRng.Intn(basePeriod/2+1)
		g.sites[i] = branchSite{period: p, count: biasRng.Intn(p), takenBiased: biasRng.Bool(0.5)}
	}
	for k := 0; k < isa.NumRegKinds; k++ {
		g.recentHead[k] = -1
	}
	g.nextStride = uint64(g.rng.Intn(int(prof.WorkingSet/64))) * 64
	g.lastColdDest = -1
}

// Profile returns the profile the generator was built from.
func (g *Generator) Profile() Profile { return g.prof }

// noteProducer records that logical register r (of kind k) was just written.
// The ring advances in place: no per-uop shifting.
//
//smtlint:noalloc
func (g *Generator) noteProducer(k isa.RegKind, r int16) {
	ring := &g.recent[k]
	h := g.recentHead[k] + 1
	if h == len(ring) {
		h = 0
	}
	ring[h] = r
	g.recentHead[k] = h
	if g.recentLen[k] < len(ring) {
		g.recentLen[k]++
	}
}

// pickSource selects a source register of kind k at the profile's dependency
// distance. If no producer has been seen yet it returns an arbitrary
// register of that kind (architecturally live-in value).
//
//smtlint:noalloc
func (g *Generator) pickSource(k isa.RegKind) int16 {
	n := g.recentLen[k]
	if n == 0 {
		return isa.FirstReg(k) + int16(g.rng.Intn(isa.RegCount(k)))
	}
	d := g.rng.Geometric(g.prof.DepP)
	if d >= n {
		d = n - 1
	}
	ring := &g.recent[k]
	i := g.recentHead[k] - d
	if i < 0 {
		i += len(ring)
	}
	return ring[i]
}

// pickDest allocates the next destination register of kind k in rotation.
//
//smtlint:noalloc
func (g *Generator) pickDest(k isa.RegKind) int16 {
	n := isa.RegCount(k)
	r := isa.FirstReg(k) + int16(g.dstCursor[k]%n)
	g.dstCursor[k]++
	return r
}

// coldBase places the cold region far above any hot working set.
const coldBase = 1 << 36

// coldSpan is the size of the cold region (256 MB: never L2-resident).
const coldSpan = 256 << 20

// nextAddrClass produces the next memory address per the profile's
// locality — a strided stream and uniform reuse within the hot working set,
// plus a ColdFrac tail into a region that never caches — and reports
// whether the cold region was chosen.
//
//smtlint:noalloc
func (g *Generator) nextAddrClass() (addr uint64, cold bool) {
	ws := g.prof.WorkingSet
	x := g.rng.Float64()
	switch {
	case x < g.prof.ColdFrac:
		return coldBase + uint64(g.rng.Intn(coldSpan/8))*8, true
	case x < g.prof.ColdFrac+g.prof.StrideFrac:
		g.nextStride += 8
		if g.nextStride >= ws {
			g.nextStride = 0
		}
		return g.nextStride, false
	default:
		// Random reuse within the hot working set, 8-byte aligned.
		return uint64(g.rng.Intn(int(ws/8))) * 8, false
	}
}

// nextAddr is nextAddrClass without the cold indication.
//
//smtlint:noalloc
func (g *Generator) nextAddr() uint64 {
	addr, _ := g.nextAddrClass()
	return addr
}

// nextPC returns the next synthetic instruction PC.
//
//smtlint:noalloc
func (g *Generator) nextPC() uint64 {
	pc := codeBase + 4*uint64(g.pcIdx)
	if g.pcIdx++; g.pcIdx == g.prof.CodeFootprint {
		g.pcIdx = 0
	}
	return pc
}

// Next generates the next uop in the stream.
//
//smtlint:noalloc
func (g *Generator) Next() isa.Uop {
	c := genClasses[g.rng.PickTotal(g.weights[:], g.weightSum)]
	var u isa.Uop
	u.Class = c
	u.Src1, u.Src2, u.Dst = isa.RegNone, isa.RegNone, isa.RegNone

	switch c {
	case isa.Int, isa.IntMul:
		u.PC = g.nextPC()
		u.Src1 = g.pickSource(isa.IntReg)
		if g.rng.Bool(g.prof.TwoSrcFrac) {
			u.Src2 = g.pickSource(isa.IntReg)
		}
		u.Dst = g.pickDest(isa.IntReg)
		g.noteProducer(isa.IntReg, u.Dst)
	case isa.Fp:
		u.PC = g.nextPC()
		u.Src1 = g.pickSource(isa.FpReg)
		if g.rng.Bool(g.prof.TwoSrcFrac) {
			u.Src2 = g.pickSource(isa.FpReg)
		}
		u.Dst = g.pickDest(isa.FpReg)
		g.noteProducer(isa.FpReg, u.Dst)
	case isa.Load:
		u.PC = g.nextPC()
		addr, cold := g.nextAddrClass()
		u.Addr = addr
		if cold {
			// Pointer chasing: a cold load's address (and so its issue)
			// may depend on the previous cold load's value, serializing
			// the long-latency misses.
			if g.lastColdDest >= 0 && g.rng.Bool(g.prof.ChaseFrac) {
				u.Src1 = g.lastColdDest
			} else {
				u.Src1 = g.pickSource(isa.IntReg)
			}
			u.Dst = g.pickDest(isa.IntReg) // pointers are integer data
			g.lastColdDest = u.Dst
			g.noteProducer(isa.IntReg, u.Dst)
		} else {
			u.Src1 = g.pickSource(isa.IntReg) // address base
			kind := isa.IntReg
			if g.rng.Bool(g.prof.FpDataFrac) {
				kind = isa.FpReg
			}
			u.Dst = g.pickDest(kind)
			g.noteProducer(kind, u.Dst)
		}
	case isa.Store:
		u.PC = g.nextPC()
		u.Src1 = g.pickSource(isa.IntReg) // address base
		kind := isa.IntReg
		if g.rng.Bool(g.prof.FpDataFrac) {
			kind = isa.FpReg
		}
		u.Src2 = g.pickSource(kind) // store data
		u.Addr = g.nextAddr()
	case isa.Branch:
		// Control flow is structured, as in real programs: branch sites
		// recur in a stable order (loop nests) with occasional transfers
		// to a random site (calls, data-dependent paths). A uniformly
		// random site sequence would make the global history pure noise
		// and defeat gshare in a way real codes do not.
		var site int
		if g.rng.Bool(0.9) {
			site = g.siteCursor % len(g.sites)
			g.siteCursor++
		} else {
			site = g.rng.Intn(len(g.sites))
			g.siteCursor = site + 1
		}
		u.PC = branchBase + 16*uint64(site)
		u.Src1 = g.pickSource(isa.IntReg) // condition input
		bs := &g.sites[site]
		bs.count++
		dominant := bs.count%bs.period != 0
		if !bs.takenBiased {
			dominant = !dominant
		}
		u.Taken = dominant
		if g.rng.Bool(g.prof.BranchNoise) {
			u.Taken = !u.Taken // data-dependent deviation
		}
	}
	return u
}

// Generate materializes n uops into a new slice.
func (g *Generator) Generate(n int) []isa.Uop {
	out := make([]isa.Uop, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// WrongPathGenerator yields uops fetched down a mispredicted path. The
// stream has the same statistical profile as the parent trace (wrong-path
// code is still the same program) but is drawn from an independent RNG so
// it never correlates with the correct path.
type WrongPathGenerator struct {
	g Generator
}

// NewWrongPathGenerator builds a wrong-path stream for prof. Wrong-path
// memory traffic is damped relative to the correct path: real wrong paths
// reference mostly-cached state (stack, recently touched data) and are cut
// short by the redirect before deep pointer chains dereference cold memory.
func NewWrongPathGenerator(prof Profile, seed uint64) *WrongPathGenerator {
	w := &WrongPathGenerator{}
	w.Reset(prof, seed)
	return w
}

// Reset restarts w as the stream NewWrongPathGenerator(prof, seed) returns,
// reusing w's storage. The zero WrongPathGenerator is ready for Reset.
func (w *WrongPathGenerator) Reset(prof Profile, seed uint64) {
	prof.ColdFrac *= 0.25
	w.g.reset(prof, seed^0xdeadfa11deadfa11)
}

// Next returns the next wrong-path uop. Branches on the wrong path are
// emitted as plain uops (the machine squashes the whole path when the
// triggering branch resolves, so nested redirects are not modelled).
//
//smtlint:noalloc
func (w *WrongPathGenerator) Next() isa.Uop {
	u := w.g.Next()
	if u.Class == isa.Branch {
		// Avoid recursive misprediction bookkeeping on the wrong path.
		u.Class = isa.Int
		u.Dst = w.g.pickDest(isa.IntReg)
	}
	return u
}
