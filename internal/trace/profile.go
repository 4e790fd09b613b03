// Package trace generates the uop streams the simulator consumes.
//
// The paper drives its simulator with 120 proprietary two-threaded x86
// traces (Table 2). Those traces are not available, so this package
// substitutes a statistical generator: each benchmark is described by a
// Profile capturing the properties the resource-assignment schemes actually
// react to — instruction mix, dependency distances (ILP), memory working-set
// size and locality (L1/L2 miss behaviour), branch density and
// predictability, and integer-vs-FP register pressure. See DESIGN.md §2.
//
// Streams are deterministic: the same Profile and seed always produce the
// same uop sequence, so every experiment is reproducible bit-for-bit.
package trace

import (
	"errors"
	"fmt"
)

// Profile statistically describes one benchmark trace.
type Profile struct {
	// Name identifies the trace (e.g. "ispec00.ilp.0").
	Name string

	// Mix gives the fraction of uops in each class. Only Int, IntMul, Fp,
	// Load, Store and Branch entries are consulted; they should sum to
	// roughly 1 (the generator normalizes).
	MixInt    float64
	MixIntMul float64
	MixFp     float64
	MixLoad   float64
	MixStore  float64
	MixBranch float64

	// DepP is the geometric parameter for dependency distance: a source
	// operand reads the destination of the k-th most recent producer with
	// probability p(1-p)^k. Larger DepP means tighter dependency chains
	// (lower ILP); smaller DepP means more distant dependencies (higher
	// ILP).
	DepP float64

	// TwoSrcFrac is the fraction of arithmetic uops with two register
	// sources.
	TwoSrcFrac float64

	// FpDataFrac is the probability that a load/store moves FP/SIMD data
	// (destination/source in the FP file). Drives per-kind register
	// pressure (e.g. ISPEC00 is almost pure integer; FSPEC00 mostly FP).
	FpDataFrac float64

	// WorkingSet is the memory footprint in bytes. Addresses are drawn
	// from this region; a footprint below the L1 capacity produces few
	// misses, between L1 and L2 produces L1 misses, and above L2 produces
	// the long-latency misses that Stall/Flush+ react to.
	WorkingSet uint64

	// StrideFrac is the fraction of memory accesses that follow a
	// sequential stride (spatial locality); the non-strided, non-cold
	// remainder is uniform random within the working set.
	StrideFrac float64

	// ColdFrac is the fraction of memory accesses that touch a large cold
	// region that never fits in the L2; it directly controls the
	// long-latency (L2-miss) rate the Stall/Flush+ policies react to.
	ColdFrac float64

	// ChaseFrac is the probability that a cold load's address depends on
	// the previous cold load's result (pointer chasing). Chased misses
	// serialize — the memory-level parallelism killer that makes a missing
	// thread sit on its issue-queue entries, the §5.1 starvation scenario.
	ChaseFrac float64

	// NumBranchSites is the number of static branch PCs; fewer sites with
	// stable bias are highly predictable, many sites with Bias near 0.5
	// defeat the gshare predictor.
	NumBranchSites int

	// BranchBias sets the dominant-outcome fraction per site. Sites behave
	// like loop branches: taken for round(1/(1-bias))-1 iterations, then
	// not taken (or the mirror pattern) — a structure gshare learns, as it
	// does for real loop branches. 0.5 yields alternating branches, 1.0 a
	// never-exiting loop.
	BranchBias float64

	// BranchNoise is the probability a branch outcome deviates from its
	// site's loop pattern; it is the floor on the achievable misprediction
	// rate (data-dependent branches in real code play this role).
	BranchNoise float64

	// CodeFootprint is the number of static non-branch PCs (basic-block
	// working set); only used to lay out synthetic PCs.
	CodeFootprint int
}

// Validate checks that the profile is internally consistent.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return errors.New("trace: profile missing name")
	}
	sum := p.MixInt + p.MixIntMul + p.MixFp + p.MixLoad + p.MixStore + p.MixBranch
	if sum <= 0 {
		return fmt.Errorf("trace: profile %q has non-positive mix sum", p.Name)
	}
	if p.MixInt < 0 || p.MixIntMul < 0 || p.MixFp < 0 || p.MixLoad < 0 || p.MixStore < 0 || p.MixBranch < 0 {
		return fmt.Errorf("trace: profile %q has a negative mix entry", p.Name)
	}
	if p.DepP <= 0 || p.DepP > 1 {
		return fmt.Errorf("trace: profile %q DepP=%v outside (0,1]", p.Name, p.DepP)
	}
	if p.TwoSrcFrac < 0 || p.TwoSrcFrac > 1 {
		return fmt.Errorf("trace: profile %q TwoSrcFrac=%v outside [0,1]", p.Name, p.TwoSrcFrac)
	}
	if p.FpDataFrac < 0 || p.FpDataFrac > 1 {
		return fmt.Errorf("trace: profile %q FpDataFrac=%v outside [0,1]", p.Name, p.FpDataFrac)
	}
	if p.WorkingSet == 0 {
		return fmt.Errorf("trace: profile %q has zero working set", p.Name)
	}
	if p.StrideFrac < 0 || p.StrideFrac > 1 {
		return fmt.Errorf("trace: profile %q StrideFrac=%v outside [0,1]", p.Name, p.StrideFrac)
	}
	if p.ColdFrac < 0 || p.ColdFrac+p.StrideFrac > 1 {
		return fmt.Errorf("trace: profile %q ColdFrac=%v invalid (StrideFrac+ColdFrac must be <= 1)", p.Name, p.ColdFrac)
	}
	if p.ChaseFrac < 0 || p.ChaseFrac > 1 {
		return fmt.Errorf("trace: profile %q ChaseFrac=%v outside [0,1]", p.Name, p.ChaseFrac)
	}
	if p.NumBranchSites <= 0 {
		return fmt.Errorf("trace: profile %q needs at least one branch site", p.Name)
	}
	if p.BranchBias < 0.5 || p.BranchBias > 1 {
		return fmt.Errorf("trace: profile %q BranchBias=%v outside [0.5,1]", p.Name, p.BranchBias)
	}
	if p.BranchNoise < 0 || p.BranchNoise > 0.5 {
		return fmt.Errorf("trace: profile %q BranchNoise=%v outside [0,0.5]", p.Name, p.BranchNoise)
	}
	if p.CodeFootprint <= 0 {
		return fmt.Errorf("trace: profile %q needs a positive code footprint", p.Name)
	}
	return nil
}

// ILPProfile returns a template profile for a compute-bound, highly parallel
// trace: small working set, distant dependencies, predictable branches.
// Callers typically adjust the mix for their category.
func ILPProfile(name string) Profile {
	return Profile{
		Name:           name,
		MixInt:         0.45,
		MixIntMul:      0.05,
		MixFp:          0.10,
		MixLoad:        0.20,
		MixStore:       0.08,
		MixBranch:      0.12,
		DepP:           0.07,
		TwoSrcFrac:     0.45,
		FpDataFrac:     0.15,
		WorkingSet:     16 << 10, // fits in L1
		StrideFrac:     0.9,
		ColdFrac:       0.0005,
		ChaseFrac:      0.25,
		NumBranchSites: 32,
		BranchBias:     0.97,
		BranchNoise:    0.02,
		CodeFootprint:  256,
	}
}

// MemProfile returns a template profile for a memory-bound trace: working
// set far beyond L2, poor locality, so loads frequently take the full
// memory latency and trigger the L2-miss-driven policies.
func MemProfile(name string) Profile {
	return Profile{
		Name:           name,
		MixInt:         0.36,
		MixIntMul:      0.03,
		MixFp:          0.07,
		MixLoad:        0.28,
		MixStore:       0.11,
		MixBranch:      0.13,
		DepP:           0.5,
		TwoSrcFrac:     0.40,
		FpDataFrac:     0.15,
		WorkingSet:     256 << 10, // L1-missing, L2-resident hot set
		StrideFrac:     0.55,
		ColdFrac:       0.02, // a long-latency miss every ~130 uops
		ChaseFrac:      0.85, // mostly serialized (pointer chasing)
		NumBranchSites: 128,
		BranchBias:     0.90,
		BranchNoise:    0.035,
		CodeFootprint:  512,
	}
}

// MixProfile returns a template between ILP and MEM behaviour: working set
// around the L2 capacity, moderate ILP and predictability.
func MixProfile(name string) Profile {
	return Profile{
		Name:           name,
		MixInt:         0.40,
		MixIntMul:      0.04,
		MixFp:          0.09,
		MixLoad:        0.25,
		MixStore:       0.10,
		MixBranch:      0.12,
		DepP:           0.25,
		TwoSrcFrac:     0.42,
		FpDataFrac:     0.15,
		WorkingSet:     96 << 10, // mostly inside L2, misses L1
		StrideFrac:     0.7,
		ColdFrac:       0.015,
		ChaseFrac:      0.6,
		NumBranchSites: 64,
		BranchBias:     0.93,
		BranchNoise:    0.035,
		CodeFootprint:  384,
	}
}
