// Package policy implements every resource assignment scheme evaluated in
// the paper (Tables 3 and 4) plus the proposed dynamic register-file scheme
// CDPRF (Figs. 7–8) and the future-work adaptations sketched in §6.
//
// A scheme decomposes into three cooperating pieces, mirroring the paper's
// structure:
//
//   - a Selector (rename thread-selection policy): Icount, Stall, Flush+;
//   - an IQPolicy bounding issue-queue occupancy per thread: unrestricted,
//     CISP, CSSP, CSPSP, PC;
//   - an RFPolicy bounding physical-register occupancy per thread: none,
//     CSSPRF, CISPRF, CDPRF.
//
// Each kind of component lives in a registry with typed, sweepable
// parameters (see spec.go); SchemeSpec composes one of each through the
// grammar "sel=<selector>,iq=<iq policy>,rf=<rf policy>" (parameters as
// :name=value), so combinations beyond the paper's tables are reachable
// from every scheme-taking surface. The named schemes of the paper are
// just named compositions registered in Lookup (e.g. "cssp" = Icount
// selector + CSSP IQ policy + no RF policy; "cdprf" = Icount + CSSP +
// dynamic RF); a composed spec matching a named triple canonicalizes back
// to the name, keeping content-addressed result keys stable (DESIGN.md
// §3).
package policy

import "clustersmt/internal/isa"

// Machine is the narrow, read-only view of processor state that policies
// consult. It is implemented by core.Processor; tests use lightweight fakes.
type Machine interface {
	// NumThreads returns the number of hardware threads.
	//smtlint:noalloc
	NumThreads() int
	// NumClusters returns the number of back-end clusters.
	//smtlint:noalloc
	NumClusters() int
	// IQSize returns the per-cluster issue-queue capacity.
	//smtlint:noalloc
	IQSize() int
	// IQFree returns free issue-queue entries in cluster c.
	//smtlint:noalloc
	IQFree(c int) int
	// IQOcc returns the issue-queue entries cluster c holds for thread t.
	//smtlint:noalloc
	IQOcc(c, t int) int
	// RFTotal returns physical registers of kind k summed over clusters.
	//smtlint:noalloc
	RFTotal(k isa.RegKind) int
	// RFFree returns free registers of kind k summed over clusters.
	//smtlint:noalloc
	RFFree(k isa.RegKind) int
	// RFInUse returns registers of kind k held by thread t over clusters.
	//smtlint:noalloc
	RFInUse(t int, k isa.RegKind) int
	// RFClusterTotal returns the per-cluster register count of kind k.
	//smtlint:noalloc
	RFClusterTotal(k isa.RegKind) int
	// RFClusterInUse returns registers of kind k in cluster c held by t.
	//smtlint:noalloc
	RFClusterInUse(c, t int, k isa.RegKind) int
	// Now returns the current cycle.
	//smtlint:noalloc
	Now() int64
}

// IQTotalOcc returns the issue-queue entries thread t holds across all
// clusters of m.
//
//smtlint:noalloc
func IQTotalOcc(m Machine, t int) int {
	total := 0
	for c := 0; c < m.NumClusters(); c++ {
		total += m.IQOcc(c, t)
	}
	return total
}
