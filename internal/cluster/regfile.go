package cluster

import (
	"fmt"

	"clustersmt/internal/isa"
)

// UnboundedRegs is the per-kind capacity used to emulate an unbounded
// register file (the paper unbounds the RF and ROB for the issue-queue study
// of §5.1 "to avoid side effects on these components").
const UnboundedRegs = 1 << 14

// RegFile is the physical register storage of one cluster: one file per
// register kind (integer and FP/SIMD), each with a free list, per-thread
// in-use counters, and data-ready bits used by the wakeup logic.
//
// The wakeup logic is event-driven: consumers subscribe to a not-yet-ready
// register with AddWaiter and are broadcast through OnWake exactly once,
// when SetReady first marks the register ready. The waiter payload W is
// whatever the core uses to identify waiting uops (typically a ROB entry
// pointer).
type RegFile[W comparable] struct {
	total   [isa.NumRegKinds]int
	free    [isa.NumRegKinds][]int32
	ready   [isa.NumRegKinds][]bool
	inUse   [isa.NumRegKinds][]int // per thread
	waiters [isa.NumRegKinds][][]W
	// slabs backs the waiter lists of files of at most waiterSlabMaxRegs
	// registers: waiterSlabCap entries per register, carved in order.
	slabs [isa.NumRegKinds][]W

	// OnWake, when non-nil, receives every waiter subscribed to a register
	// at the moment SetReady makes it ready. Callbacks must not re-subscribe
	// to the register that is waking them (it is ready now).
	OnWake func(W)
}

// NewRegFile returns a register file with intRegs integer and fpRegs FP/SIMD
// physical registers, tracking usage for n threads. Non-positive counts
// select UnboundedRegs.
func NewRegFile[W comparable](intRegs, fpRegs, n int) *RegFile[W] {
	rf := &RegFile[W]{}
	rf.Reset(intRegs, fpRegs, n)
	return rf
}

// Reset makes rf the register file NewRegFile(intRegs, fpRegs, n) returns,
// in place: all registers free and not ready, no waiters, no usage. A kind
// keeps its arrays whenever their capacity covers its new register count,
// so a file shrunk from an emulated-unbounded one allocates nothing; a
// kind whose count is unchanged keeps its waiter lists' backings too.
// OnWake is left as it is.
func (rf *RegFile[W]) Reset(intRegs, fpRegs, n int) {
	if intRegs <= 0 {
		intRegs = UnboundedRegs
	}
	if fpRegs <= 0 {
		fpRegs = UnboundedRegs
	}
	if n <= 0 {
		n = 1
	}
	counts := [isa.NumRegKinds]int{isa.IntReg: intRegs, isa.FpReg: fpRegs}
	for k := 0; k < isa.NumRegKinds; k++ {
		c := counts[k]
		if rf.total[k] != c {
			rf.total[k] = c
			rf.free[k] = fit(rf.free[k], c)
			rf.ready[k] = fit(rf.ready[k], c)
			rf.waiters[k] = fit(rf.waiters[k], c)
			if c <= waiterSlabMaxRegs {
				// Carve every register's initial waiter capacity out of one
				// slab so steady-state subscription never allocates; a
				// register that outgrows its slice detaches via append and
				// keeps the grown backing. Emulated-unbounded files
				// (UnboundedRegs) stay lazy — the slab would cost megabytes
				// and those registers rarely collect waiters.
				rf.slabs[k] = fit(rf.slabs[k], c*waiterSlabCap)
				clear(rf.slabs[k])
				for i := 0; i < c; i++ {
					rf.waiters[k][i] = rf.slabs[k][i*waiterSlabCap : i*waiterSlabCap : (i+1)*waiterSlabCap]
				}
			}
		}
		rf.free[k] = rf.free[k][:c]
		for i := range rf.free[k] {
			// Pop from the end; keep low indices allocated first.
			rf.free[k][i] = int32(c - 1 - i)
		}
		clear(rf.ready[k])
		for i, ws := range rf.waiters[k] {
			clear(ws)
			rf.waiters[k][i] = ws[:0]
		}
		rf.inUse[k] = fit(rf.inUse[k], n)
		clear(rf.inUse[k])
	}
}

// fit returns s resliced to length n when its capacity covers n, and a new
// slice of length n otherwise. Elements a reslice exposes keep their old
// values; callers overwrite or clear them.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// waiterSlabCap is the pre-carved waiter capacity per register;
// waiterSlabMaxRegs bounds the file sizes that get the slab (Table 1's
// 64–128 regs/kind easily qualify; UnboundedRegs does not).
const (
	waiterSlabCap     = 4
	waiterSlabMaxRegs = 2048
)

// Total returns the number of physical registers of kind k.
//
//smtlint:noalloc
func (rf *RegFile[W]) Total(k isa.RegKind) int { return rf.total[k] }

// FreeCount returns the number of unallocated registers of kind k.
//
//smtlint:noalloc
func (rf *RegFile[W]) FreeCount(k isa.RegKind) int { return len(rf.free[k]) }

// InUse returns the number of registers of kind k held by thread t.
//
//smtlint:noalloc
func (rf *RegFile[W]) InUse(k isa.RegKind, t int) int { return rf.inUse[k][t] }

// Alloc takes a register of kind k for thread t. The register starts
// not-ready. It returns -1 and false when the file is exhausted.
//
//smtlint:noalloc
func (rf *RegFile[W]) Alloc(k isa.RegKind, t int) (int32, bool) {
	fl := rf.free[k]
	if len(fl) == 0 {
		return -1, false
	}
	idx := fl[len(fl)-1]
	rf.free[k] = fl[:len(fl)-1]
	if len(rf.waiters[k][idx]) != 0 {
		panic(fmt.Sprintf("cluster: Alloc(%v, %d) with live waiters", k, idx))
	}
	rf.ready[k][idx] = false
	rf.inUse[k][t]++
	return idx, true
}

// Free returns register idx of kind k held by thread t to the free list.
//
//smtlint:noalloc
func (rf *RegFile[W]) Free(k isa.RegKind, t int, idx int32) {
	if idx < 0 || int(idx) >= rf.total[k] {
		panic(fmt.Sprintf("cluster: Free(%v, %d) out of range", k, idx))
	}
	if len(rf.waiters[k][idx]) != 0 {
		panic(fmt.Sprintf("cluster: Free(%v, %d) with live waiters", k, idx))
	}
	rf.inUse[k][t]--
	if rf.inUse[k][t] < 0 {
		panic("cluster: register free underflow")
	}
	//smtlint:allow free list refills within its construction-time capacity
	rf.free[k] = append(rf.free[k], idx)
}

// SetReady marks register idx of kind k data-ready and broadcasts to its
// waiters, in subscription order, through OnWake. A register already ready
// broadcasts nothing (SetReady is idempotent).
//
//smtlint:noalloc
func (rf *RegFile[W]) SetReady(k isa.RegKind, idx int32) {
	if rf.ready[k][idx] {
		return
	}
	rf.ready[k][idx] = true
	ws := rf.waiters[k][idx]
	if len(ws) == 0 {
		return
	}
	// Keep the backing array for reuse by the next holder of this register.
	// AddWaiter rejects ready registers, so OnWake cannot append to ws while
	// we drain it.
	rf.waiters[k][idx] = ws[:0]
	var zero W
	for i, w := range ws {
		ws[i] = zero
		if rf.OnWake != nil {
			//smtlint:allow wakeup hook; the core installs an annotated callback
			rf.OnWake(w)
		}
	}
}

// IsReady reports whether register idx of kind k is data-ready.
//
//smtlint:noalloc
func (rf *RegFile[W]) IsReady(k isa.RegKind, idx int32) bool { return rf.ready[k][idx] }

// AddWaiter subscribes w to register idx of kind k. The register must not be
// ready yet: consumers of a ready register never wait (check IsReady first).
//
//smtlint:noalloc
func (rf *RegFile[W]) AddWaiter(k isa.RegKind, idx int32, w W) {
	if rf.ready[k][idx] {
		panic(fmt.Sprintf("cluster: AddWaiter(%v, %d) on ready register", k, idx))
	}
	//smtlint:allow waiter lists retain their backing arrays across register reuse
	rf.waiters[k][idx] = append(rf.waiters[k][idx], w)
}

// RemoveWaiter unsubscribes one occurrence of w from register idx of kind k
// (the squash path). It reports whether an occurrence was found; removing an
// absent waiter is a no-op, so callers may unsubscribe sources that already
// woke them.
//
//smtlint:noalloc
func (rf *RegFile[W]) RemoveWaiter(k isa.RegKind, idx int32, w W) bool {
	ws := rf.waiters[k][idx]
	for i := range ws {
		if ws[i] == w {
			copy(ws[i:], ws[i+1:])
			var zero W
			ws[len(ws)-1] = zero
			rf.waiters[k][idx] = ws[:len(ws)-1]
			return true
		}
	}
	return false
}

// WaiterCount returns the number of subscriptions on register idx of kind k
// (tests and invariant checks).
//
//smtlint:noalloc
func (rf *RegFile[W]) WaiterCount(k isa.RegKind, idx int32) int {
	return len(rf.waiters[k][idx])
}
