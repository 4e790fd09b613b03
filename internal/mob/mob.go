// Package mob models the shared memory order buffer of the baseline machine
// (Table 1: MOB of 128 entries, shared load and store queues). Loads and
// stores allocate an entry at rename and release it at commit or squash;
// loads search older same-thread stores for store-to-load forwarding.
//
// Memory-order misspeculation replay is not modelled: the simulator is
// trace-driven, so load values are always architectural. The MOB's role in
// this study is occupancy (a shared resource threads can starve on) and
// forwarding latency.
//
// Storage is a value arena: all entries live in one fixed slab sized to the
// capacity, with a free list of slot indices and per-thread program-order
// index lists. Alloc/Release recycle slots instead of touching the heap
// (the pointer-per-entry layout was the simulator's single largest
// allocation site), and the forwarding scan walks contiguous memory.
package mob

// Entry identifies one in-flight memory operation. Entries are slots of the
// MOB's arena: pointers returned by Alloc stay valid until Release, then the
// slot is recycled.
type Entry struct {
	Thread  int
	Seq     uint64 // per-thread program order
	Addr    uint64
	IsStore bool
	// Resolved is set when the address (and, for stores, data) is known,
	// i.e. the uop has executed.
	Resolved bool

	// idx is the entry's arena slot, fixed at construction.
	idx int32
}

// MOB is the shared memory order buffer. It is not safe for concurrent use.
type MOB struct {
	capacity int
	arena    []Entry
	freeList []int32
	// stores and loads hold arena indices per thread in program order.
	stores [][]int32
	loads  [][]int32
	used   int

	forwards uint64
}

// New returns a MOB with the given total capacity shared by n threads.
func New(capacity, n int) *MOB {
	m := &MOB{}
	m.Reset(capacity, n)
	return m
}

// Reset makes m the empty MOB New(capacity, n) returns, in place, keeping
// its arena and index lists when capacity and n are unchanged.
func (m *MOB) Reset(capacity, n int) {
	if capacity <= 0 {
		capacity = 128
	}
	if n <= 0 {
		n = 1
	}
	if len(m.arena) != capacity || len(m.stores) != n {
		*m = MOB{
			arena:    make([]Entry, capacity),
			freeList: make([]int32, capacity),
			stores:   make([][]int32, n),
			loads:    make([][]int32, n),
		}
		for t := 0; t < n; t++ {
			// Any one thread may hold up to the full shared capacity; sizing
			// the index lists up front keeps Alloc append-free for good.
			m.stores[t] = make([]int32, 0, capacity)
			m.loads[t] = make([]int32, 0, capacity)
		}
	}
	m.capacity, m.used, m.forwards = capacity, 0, 0
	m.freeList = m.freeList[:capacity]
	for i := range m.freeList {
		// Pop from the end; keep low indices allocated first.
		m.freeList[i] = int32(capacity - 1 - i)
	}
	for t := 0; t < n; t++ {
		m.stores[t] = m.stores[t][:0]
		m.loads[t] = m.loads[t][:0]
	}
}

// Capacity returns the total number of entries.
//
//smtlint:noalloc
func (m *MOB) Capacity() int { return m.capacity }

// Used returns the number of allocated entries.
//
//smtlint:noalloc
func (m *MOB) Used() int { return m.used }

// Free returns the number of available entries.
//
//smtlint:noalloc
func (m *MOB) Free() int { return m.capacity - m.used }

// UsedBy returns the number of entries held by thread t.
//
//smtlint:noalloc
func (m *MOB) UsedBy(t int) int { return len(m.stores[t]) + len(m.loads[t]) }

// Alloc allocates an entry for thread t at sequence seq. It returns nil if
// the MOB is full.
//
//smtlint:noalloc
func (m *MOB) Alloc(t int, seq uint64, isStore bool) *Entry {
	if m.used >= m.capacity {
		return nil
	}
	idx := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	e := &m.arena[idx]
	*e = Entry{Thread: t, Seq: seq, IsStore: isStore, idx: idx}
	if isStore {
		//smtlint:allow per-thread index lists bounded by MOB capacity; backings reused
		m.stores[t] = append(m.stores[t], idx)
	} else {
		//smtlint:allow per-thread index lists bounded by MOB capacity; backings reused
		m.loads[t] = append(m.loads[t], idx)
	}
	m.used++
	return e
}

// Resolve marks e executed with address addr.
//
//smtlint:noalloc
func (m *MOB) Resolve(e *Entry, addr uint64) {
	e.Addr = addr
	e.Resolved = true
}

// Forward reports whether a load by thread t at sequence seq from addr can
// be served by an older resolved store of the same thread to the same
// 8-byte-aligned address.
//
//smtlint:noalloc
func (m *MOB) Forward(t int, seq uint64, addr uint64) bool {
	a := addr &^ 7
	sts := m.stores[t]
	for i := len(sts) - 1; i >= 0; i-- {
		s := &m.arena[sts[i]]
		if s.Seq >= seq {
			continue
		}
		if s.Resolved && s.Addr&^7 == a {
			m.forwards++
			return true
		}
	}
	return false
}

// Release removes e (commit or squash). Releasing an entry that is not
// present is a programming error and panics.
//
//smtlint:noalloc
func (m *MOB) Release(e *Entry) {
	var list *[]int32
	if e.IsStore {
		list = &m.stores[e.Thread]
	} else {
		list = &m.loads[e.Thread]
	}
	for i, idx := range *list {
		if idx == e.idx {
			//smtlint:allow copy-down removal within existing capacity; never grows
			*list = append((*list)[:i], (*list)[i+1:]...)
			//smtlint:allow free list refills within its construction-time capacity
			m.freeList = append(m.freeList, e.idx)
			m.used--
			return
		}
	}
	panic("mob: Release of entry not in MOB")
}

// SquashYounger removes all entries of thread t with Seq > seq and returns
// how many were removed.
//
//smtlint:noalloc
func (m *MOB) SquashYounger(t int, seq uint64) int {
	n := 0
	n += m.squashList(&m.stores[t], seq)
	n += m.squashList(&m.loads[t], seq)
	m.used -= n
	return n
}

//smtlint:noalloc
func (m *MOB) squashList(list *[]int32, seq uint64) int {
	// Entries are in program order; find the first younger entry.
	l := *list
	i := len(l)
	for i > 0 && m.arena[l[i-1]].Seq > seq {
		i--
	}
	n := len(l) - i
	//smtlint:allow free list refills within its construction-time capacity
	m.freeList = append(m.freeList, l[i:]...)
	*list = l[:i]
	return n
}

// Forwards returns the number of successful store-to-load forwards.
//
//smtlint:noalloc
func (m *MOB) Forwards() uint64 { return m.forwards }
