// Package frontend provides the front-end and bookkeeping structures of the
// baseline machine (§3): per-thread fetch queues (the private queues inside
// the thread-selection component), per-thread register alias tables that
// track in which cluster(s) each logical register has a live physical copy,
// and the per-thread ROB sections.
package frontend

import (
	"clustersmt/internal/isa"
	"clustersmt/internal/mob"
)

// MaxClusters bounds the number of clusters the per-register cluster masks
// support. The paper's machine has two; four leaves headroom for studies.
const MaxClusters = 4

// RegMap records where a logical register's current value lives: a valid
// bit and physical index per cluster. A register with no valid bits reads
// its architectural (pre-trace) value and is always ready.
type RegMap struct {
	Valid [MaxClusters]bool
	Phys  [MaxClusters]int32
}

// AnyValid reports whether any cluster holds a live copy.
//
//smtlint:noalloc
func (m *RegMap) AnyValid() bool {
	for _, v := range m.Valid {
		if v {
			return true
		}
	}
	return false
}

// RAT is one thread's register alias table.
type RAT struct {
	maps [isa.NumLogicalRegs]RegMap
}

// Get returns the mapping of logical register r.
//
//smtlint:noalloc
func (r *RAT) Get(reg int16) RegMap { return r.maps[reg] }

// GetRef returns a read-only pointer to the mapping of logical register r,
// avoiding the 20-byte copy on the rename hot path. Callers must not mutate
// through it; use Set/SetCluster/Define.
//
//smtlint:noalloc
func (r *RAT) GetRef(reg int16) *RegMap { return &r.maps[reg] }

// Set replaces the mapping of logical register reg.
//
//smtlint:noalloc
func (r *RAT) Set(reg int16, m RegMap) { r.maps[reg] = m }

// SetCluster adds/overwrites the mapping of reg in cluster c.
//
//smtlint:noalloc
func (r *RAT) SetCluster(reg int16, c int, phys int32) {
	r.maps[reg].Valid[c] = true
	r.maps[reg].Phys[c] = phys
}

// Define makes reg live only in cluster c at phys (a new architectural
// definition kills copies in other clusters).
//
//smtlint:noalloc
func (r *RAT) Define(reg int16, c int, phys int32) {
	var m RegMap
	m.Valid[c] = true
	m.Phys[c] = phys
	r.maps[reg] = m
}

// ROBEntry is one in-flight uop. Entries are pooled by the core; the
// Reset method restores a pooled entry to a blank state.
type ROBEntry struct {
	Uop    isa.Uop
	Thread int
	// Seq is the per-thread program-order sequence number.
	Seq uint64
	// ID is a globally unique, monotonically increasing age tag used for
	// oldest-first issue selection.
	ID uint64
	// TraceIdx is the index of the uop in its thread's trace, or -1 for
	// wrong-path and copy uops.
	TraceIdx  int
	WrongPath bool
	// Cluster is the back-end cluster the uop was steered to.
	Cluster int

	Issued    bool
	Completed bool
	Squashed  bool

	// Destination register allocation; DstPhys < 0 when the uop writes no
	// register.
	DstKind isa.RegKind
	DstPhys int32
	// OldMap is the destination logical register's mapping before this
	// uop renamed it, used for freeing at commit and rollback at squash.
	OldMap RegMap

	// Branch state.
	PredTaken      bool
	Mispredicted   bool
	HistCheckpoint uint64

	// Memory state. MissNotified is set while the miss-start event sent to
	// the policies has not yet been balanced by a miss-end (completion or
	// squash).
	MOBEntry     *mob.Entry
	MissedL2     bool
	MissNotified bool

	// InWheel marks an entry with a pending completion event; squashed
	// entries stay owned by the event wheel until it drops them.
	InWheel bool
	// WheelNext chains entries completing in the same cycle (the core's
	// event wheel is an intrusive FIFO list per bucket, so scheduling a
	// completion never allocates). Owned by the core; nil while not queued.
	WheelNext *ROBEntry

	// Copy state: the value is read from CopySrcPhys in cluster SrcCluster
	// and written to DstPhys in Cluster. CopyLogReg is the logical register
	// being replicated (needed to undo the RAT update on squash).
	SrcCluster  int
	CopySrcPhys int32
	CopyLogReg  int16

	// Renamed source operands. A negative physical index means the source
	// is immediately ready (architectural live-in). Sources of non-copy
	// uops always live in the entry's own cluster (copies were inserted
	// to guarantee it).
	NumSrc  int
	SrcPhys [2]int32
	SrcKind [2]isa.RegKind

	// WaitCount is the number of source registers still pending under
	// event-driven wakeup; the entry joins its issue queue's ready list
	// when register-ready broadcasts drive it to zero.
	WaitCount int8

	// IQSlot is the issue-queue slot handle returned by Insert, enabling
	// O(1) removal at issue and squash; -1 while not queued.
	IQSlot int32
}

// Reset blanks e for reuse from a pool.
//
//smtlint:noalloc
func (e *ROBEntry) Reset() {
	*e = ROBEntry{DstPhys: -1, CopySrcPhys: -1, TraceIdx: -1, IQSlot: -1}
	e.SrcPhys[0], e.SrcPhys[1] = -1, -1
}

// IsCopy reports whether the entry is an inter-cluster copy.
//
//smtlint:noalloc
func (e *ROBEntry) IsCopy() bool { return e.Uop.Class == isa.Copy }

// ROB is one thread's reorder-buffer section (§3: the ROB is split into as
// many sections as running threads). Capacity 0 means unbounded (used by
// the §5.1 issue-queue study).
//
// Storage is a ring buffer over a fixed pointer array sized from the
// configured capacity. The previous slice-of-pointers layout advanced the
// slice head on every PopHead, so append's spare capacity was consumed
// permanently and Push reallocated the whole backing array every
// capacity-many commits — the second-largest allocation site in simulator
// profiles. The ring reuses its slots forever; only the unbounded
// configuration can grow it (by doubling, amortized and transient).
type ROB struct {
	capacity int
	buf      []*ROBEntry
	head     int // index of the oldest entry
	n        int
}

// NewROB returns a ROB section with the given capacity (0 = unbounded).
func NewROB(capacity int) *ROB {
	r := &ROB{}
	r.Reset(capacity)
	return r
}

// Reset makes r the empty section NewROB(capacity) returns, in place,
// keeping its ring when the ring's size is unchanged.
func (r *ROB) Reset(capacity int) {
	size := capacity
	if capacity <= 0 {
		size = 64 // unbounded: start small, grow by doubling
	}
	if len(r.buf) != size {
		r.buf = make([]*ROBEntry, size)
	}
	clear(r.buf)
	r.capacity, r.head, r.n = capacity, 0, 0
}

// Capacity returns the configured capacity (0 = unbounded).
//
//smtlint:noalloc
func (r *ROB) Capacity() int { return r.capacity }

// Len returns the number of in-flight entries.
//
//smtlint:noalloc
func (r *ROB) Len() int { return r.n }

// Free returns the number of allocatable entries; unbounded ROBs always
// report a large positive number.
//
//smtlint:noalloc
func (r *ROB) Free() int {
	if r.capacity <= 0 {
		return 1 << 30
	}
	return r.capacity - r.n
}

// idx maps logical position i (0 = oldest) to a buffer index.
//
//smtlint:noalloc
func (r *ROB) idx(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// grow doubles an unbounded ROB's ring, relinearizing the entries.
func (r *ROB) grow() {
	nb := make([]*ROBEntry, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[r.idx(i)]
	}
	r.buf = nb
	r.head = 0
}

// Push appends e at the tail. It reports false when the ROB is full.
//
//smtlint:noalloc
func (r *ROB) Push(e *ROBEntry) bool {
	if r.capacity > 0 && r.n >= r.capacity {
		return false
	}
	if r.n == len(r.buf) {
		//smtlint:allow amortized doubling for the unbounded-ROB configuration
		r.grow()
	}
	r.buf[r.idx(r.n)] = e
	r.n++
	return true
}

// Head returns the oldest entry, or nil when empty.
//
//smtlint:noalloc
func (r *ROB) Head() *ROBEntry {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}

// PopHead removes and returns the oldest entry.
//
//smtlint:noalloc
func (r *ROB) PopHead() *ROBEntry {
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return e
}

// Tail returns the youngest entry, or nil when empty.
//
//smtlint:noalloc
func (r *ROB) Tail() *ROBEntry {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.idx(r.n-1)]
}

// PopTail removes and returns the youngest entry (squash path).
//
//smtlint:noalloc
func (r *ROB) PopTail() *ROBEntry {
	i := r.idx(r.n - 1)
	e := r.buf[i]
	r.buf[i] = nil
	r.n--
	return e
}

// At returns the i-th oldest entry.
//
//smtlint:noalloc
func (r *ROB) At(i int) *ROBEntry { return r.buf[r.idx(i)] }

// FetchedUop is a uop sitting in a thread's private fetch queue together
// with the front-end state captured at fetch time.
type FetchedUop struct {
	Uop isa.Uop
	// TraceIdx is the trace position (-1 for wrong-path uops).
	TraceIdx  int
	WrongPath bool
	// Branch prediction state captured at fetch.
	PredTaken      bool
	Mispredicted   bool
	HistCheckpoint uint64
}

// FetchQueue is one thread's private fetch queue, a bounded ring-buffer
// FIFO sized to avoid any allocation in the fetch loop.
type FetchQueue struct {
	buf  []FetchedUop
	head int
	n    int
}

// NewFetchQueue returns a queue with the given capacity.
func NewFetchQueue(capacity int) *FetchQueue {
	q := &FetchQueue{}
	q.Reset(capacity)
	return q
}

// Reset makes q the empty queue NewFetchQueue(capacity) returns, in place,
// keeping its ring when the capacity is unchanged.
func (q *FetchQueue) Reset(capacity int) {
	if capacity <= 0 {
		capacity = 32
	}
	if len(q.buf) != capacity {
		q.buf = make([]FetchedUop, capacity)
	}
	q.head, q.n = 0, 0
}

// Len returns the number of queued uops.
//
//smtlint:noalloc
func (q *FetchQueue) Len() int { return q.n }

// Free returns the remaining capacity.
//
//smtlint:noalloc
func (q *FetchQueue) Free() int { return len(q.buf) - q.n }

// Push appends u; it reports false when full.
//
//smtlint:noalloc
func (q *FetchQueue) Push(u FetchedUop) bool {
	if q.n >= len(q.buf) {
		return false
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = u
	q.n++
	return true
}

// Peek returns the oldest queued uop without removing it. It must not be
// called on an empty queue.
//
//smtlint:noalloc
func (q *FetchQueue) Peek() *FetchedUop { return &q.buf[q.head] }

// Pop removes and returns the oldest queued uop. It must not be called on
// an empty queue.
//
//smtlint:noalloc
func (q *FetchQueue) Pop() FetchedUop {
	u := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return u
}

// Each calls fn on every queued uop in fetch order; it stops early when fn
// returns false.
//
//smtlint:noalloc
func (q *FetchQueue) Each(fn func(u *FetchedUop) bool) {
	i := q.head
	for k := 0; k < q.n; k++ {
		if !fn(&q.buf[i]) {
			return
		}
		i++
		if i == len(q.buf) {
			i = 0
		}
	}
}

// Clear empties the queue (squash/redirect path).
//
//smtlint:noalloc
func (q *FetchQueue) Clear() {
	q.head = 0
	q.n = 0
}
