// Package cluster provides the per-cluster back-end structures of the
// baseline machine (§3): the issue queue, the two physical register files
// (integer and FP/SIMD) with their free lists and ready bits, and the three
// issue ports (Table 1: P0 int/fp/simd, P1 int/fp/simd, P2 int/mem).
//
// Wakeup is event-driven (DESIGN.md §5): register files keep per-register
// waiter lists (AddWaiter/RemoveWaiter) and broadcast on SetReady; issue
// queues keep per-cluster age-ordered ready lists (MarkReady) that select
// walks oldest-first, and slot handles make entry removal O(1). The
// polling equivalent survives behind core.Config.PollingWakeup for the
// equivalence tests and the wakeup ablation benchmark.
package cluster

import (
	"slices"

	"clustersmt/internal/isa"
)

// IssueQueue is a fixed-capacity, age-ordered issue queue. The payload T is
// whatever the core uses to identify in-flight uops (typically a ROB entry
// pointer). Entries are kept in insertion (age) order on an intrusive
// doubly-linked list over a slot arena, so oldest-first select is a linear
// walk and removal by slot handle is O(1).
//
// The queue tracks per-thread occupancy because every partitioning scheme in
// the paper is defined in terms of how many entries each thread holds.
//
// For event-driven wakeup the queue also keeps a ready list: the subset of
// entries whose operands are all data-ready, maintained by the core through
// MarkReady as register-ready broadcasts arrive. Select then walks only the
// ready list (ScanReady) instead of re-testing every waiting entry's sources
// every cycle.
type IssueQueue[T comparable] struct {
	slots []iqSlot[T]
	occ   []int // per thread
	n     int

	head, tail, freeHead int32

	// ready holds the wakeup-complete entries with their age tags. It is
	// kept age-sorted lazily: MarkReady appends and flags unsorted when the
	// new tail is out of order; ScanReady restores the order.
	ready    []readyEnt[T]
	unsorted bool
}

type iqSlot[T comparable] struct {
	payload    T
	thread     int32
	prev, next int32
	live       bool
}

type readyEnt[T comparable] struct {
	payload T
	age     uint64
}

const nilSlot = int32(-1)

// NewIssueQueue returns an issue queue with the given capacity, tracking
// occupancy for n threads.
func NewIssueQueue[T comparable](capacity, n int) *IssueQueue[T] {
	q := &IssueQueue[T]{}
	q.Reset(capacity, n)
	return q
}

// Reset makes q the empty queue NewIssueQueue(capacity, n) returns, in
// place, keeping each array whose size is unchanged.
func (q *IssueQueue[T]) Reset(capacity, n int) {
	if capacity <= 0 {
		capacity = 32
	}
	if n <= 0 {
		n = 1
	}
	if len(q.slots) != capacity {
		q.slots = make([]iqSlot[T], capacity)
		// Every queued entry can be ready at once; full capacity up front
		// keeps MarkReady append-free for the queue's lifetime.
		q.ready = make([]readyEnt[T], 0, capacity)
	}
	if len(q.occ) != n {
		q.occ = make([]int, n)
	}
	clear(q.slots)
	clear(q.occ)
	clear(q.ready[:cap(q.ready)])
	q.ready = q.ready[:0]
	for i := range q.slots {
		q.slots[i].next = int32(i + 1)
	}
	q.slots[capacity-1].next = nilSlot
	q.head, q.tail, q.freeHead = nilSlot, nilSlot, 0
	q.n = 0
	q.unsorted = false
}

// Capacity returns the total number of entries.
//
//smtlint:noalloc
func (q *IssueQueue[T]) Capacity() int { return len(q.slots) }

// Len returns the number of occupied entries.
//
//smtlint:noalloc
func (q *IssueQueue[T]) Len() int { return q.n }

// Free returns the number of available entries.
//
//smtlint:noalloc
func (q *IssueQueue[T]) Free() int { return len(q.slots) - q.n }

// Occupancy returns the number of entries held by thread t.
//
//smtlint:noalloc
func (q *IssueQueue[T]) Occupancy(t int) int { return q.occ[t] }

// Insert appends payload for thread t in age order and returns the slot
// handle for O(1) removal. It reports false when the queue is full.
//
//smtlint:noalloc
func (q *IssueQueue[T]) Insert(payload T, t int) (int32, bool) {
	s := q.freeHead
	if s == nilSlot {
		return nilSlot, false
	}
	sl := &q.slots[s]
	q.freeHead = sl.next
	sl.payload = payload
	sl.thread = int32(t)
	sl.prev = q.tail
	sl.next = nilSlot
	sl.live = true
	if q.tail != nilSlot {
		q.slots[q.tail].next = s
	} else {
		q.head = s
	}
	q.tail = s
	q.occ[t]++
	q.n++
	return s, true
}

// Scan calls fn on every entry in age order (oldest first). If fn returns
// false the scan stops early. fn must not mutate the queue.
//
//smtlint:noalloc
func (q *IssueQueue[T]) Scan(fn func(payload T, thread int) bool) {
	for s := q.head; s != nilSlot; s = q.slots[s].next {
		if !fn(q.slots[s].payload, int(q.slots[s].thread)) {
			return
		}
	}
}

// RemoveAt deletes the entry in slot s (a handle returned by Insert) in
// O(1), preserving age order of the survivors. The payload must match the
// slot's occupant — a cheap guard against stale handles after slot reuse —
// and also leaves the ready list if it was on it.
//
//smtlint:noalloc
func (q *IssueQueue[T]) RemoveAt(s int32, payload T) {
	sl := &q.slots[s]
	if !sl.live || sl.payload != payload {
		panic("cluster: RemoveAt handle does not match its payload")
	}
	if sl.prev != nilSlot {
		q.slots[sl.prev].next = sl.next
	} else {
		q.head = sl.next
	}
	if sl.next != nilSlot {
		q.slots[sl.next].prev = sl.prev
	} else {
		q.tail = sl.prev
	}
	q.occ[sl.thread]--
	q.n--
	q.unmarkReady(sl.payload)
	var zero T
	sl.payload = zero // don't pin garbage
	sl.live = false
	sl.next = q.freeHead
	q.freeHead = s
}

// Remove deletes the entry with the given payload, preserving age order.
// The payload also leaves the ready list if it was on it. It reports whether
// the payload was present. Callers holding the Insert handle should prefer
// the O(1) RemoveAt.
//
//smtlint:noalloc
func (q *IssueQueue[T]) Remove(payload T) bool {
	for s := q.head; s != nilSlot; s = q.slots[s].next {
		if q.slots[s].payload == payload {
			q.RemoveAt(s, payload)
			return true
		}
	}
	return false
}

// RemoveIf deletes every entry for which fn returns true and returns the
// number removed. Age order of survivors is preserved and removed entries
// leave the ready list.
//
//smtlint:noalloc
func (q *IssueQueue[T]) RemoveIf(fn func(payload T, thread int) bool) int {
	removed := 0
	for s := q.head; s != nilSlot; {
		next := q.slots[s].next
		if fn(q.slots[s].payload, int(q.slots[s].thread)) {
			q.RemoveAt(s, q.slots[s].payload)
			removed++
		}
		s = next
	}
	return removed
}

// MarkReady puts payload on the ready list with the given age tag (a value
// that orders entries the same way their queue insertion did, e.g. a global
// rename sequence number). The core calls it when the last outstanding
// source of an entry becomes ready, or at dispatch for entries whose sources
// are all ready already. A payload must be marked at most once while queued.
//
//smtlint:noalloc
func (q *IssueQueue[T]) MarkReady(payload T, age uint64) {
	if n := len(q.ready); n > 0 && q.ready[n-1].age > age {
		q.unsorted = true
	}
	//smtlint:allow ready list reuses its backing array; bounded by IQ occupancy
	q.ready = append(q.ready, readyEnt[T]{payload: payload, age: age})
}

// ReadyLen returns the number of entries on the ready list.
//
//smtlint:noalloc
func (q *IssueQueue[T]) ReadyLen() int { return len(q.ready) }

// ScanReady calls fn on every ready entry, oldest (smallest age tag) first.
// If fn returns false the scan stops early. fn must not mutate the queue;
// collect first, then remove.
//
//smtlint:noalloc
func (q *IssueQueue[T]) ScanReady(fn func(payload T) bool) {
	if q.unsorted {
		slices.SortFunc(q.ready, func(a, b readyEnt[T]) int {
			switch {
			case a.age < b.age:
				return -1
			case a.age > b.age:
				return 1
			default:
				return 0
			}
		})
		q.unsorted = false
	}
	for i := range q.ready {
		if !fn(q.ready[i].payload) {
			return
		}
	}
}

// unmarkReady drops payload from the ready list, preserving order.
//
//smtlint:noalloc
func (q *IssueQueue[T]) unmarkReady(payload T) {
	for i := range q.ready {
		if q.ready[i].payload == payload {
			//smtlint:allow copy-down removal within existing capacity; never grows
			q.ready = append(q.ready[:i], q.ready[i+1:]...)
			return
		}
	}
}

// Ports models the three issue ports of one cluster. Reset at the start of
// each cycle; TryIssue claims a compatible free port for a uop class.
type Ports struct {
	// busy[i] marks port i used this cycle.
	busy [3]bool
	// issued counts grants per cycle for stats.
	issued int
}

// PortCount is the number of issue ports per cluster (Table 1).
const PortCount = 3

// portsFor returns the bitmask of ports able to execute class c:
// P0/P1 execute int and fp/simd, P2 executes int and memory.
//
//smtlint:noalloc
func portsFor(c isa.Class) uint8 {
	switch c {
	case isa.Int, isa.IntMul, isa.Branch, isa.Nop:
		return 0b111
	case isa.Fp:
		return 0b011
	case isa.Load, isa.Store:
		return 0b100
	default: // Copy travels on the interconnect, not the ports
		return 0
	}
}

// Reset clears the per-cycle port state.
//
//smtlint:noalloc
func (p *Ports) Reset() {
	p.busy = [3]bool{}
	p.issued = 0
}

// TryIssue claims a free compatible port for class c. It returns the port
// index and true on success.
//
//smtlint:noalloc
func (p *Ports) TryIssue(c isa.Class) (int, bool) {
	mask := portsFor(c)
	for i := 0; i < PortCount; i++ {
		if mask&(1<<uint(i)) != 0 && !p.busy[i] {
			p.busy[i] = true
			p.issued++
			return i, true
		}
	}
	return 0, false
}

// HasFree reports whether a compatible port is still free for class c this
// cycle (without claiming it). Used by the workload-imbalance metric
// (Fig. 5): a ready uop that cannot issue here but could have issued in the
// other cluster counts as imbalance.
//
//smtlint:noalloc
func (p *Ports) HasFree(c isa.Class) bool {
	mask := portsFor(c)
	for i := 0; i < PortCount; i++ {
		if mask&(1<<uint(i)) != 0 && !p.busy[i] {
			return true
		}
	}
	return false
}

// Issued returns the number of uops issued through the ports this cycle.
//
//smtlint:noalloc
func (p *Ports) Issued() int { return p.issued }
