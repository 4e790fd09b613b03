// Package cachesim models the paper's shared memory hierarchy (Table 1):
// a 32 KB 2-way L1 with 2 read + 2 write ports and 1-cycle hit latency, a
// 4 MB 8-way L2 with 12-cycle hit latency, main memory at 60 cycles (the
// Table 1 default; MemLatency is a sweepable machine-shape axis, and the
// core sizes its completion wheel from the configured worst case), and a
// 1024-entry 8-way DTLB. Misses are tracked in MSHRs so that requests to a
// line already in flight coalesce with the outstanding fill.
//
// The hierarchy reports, for every access, the level that served it and the
// completion cycle. L2 misses are what the Stall/Flush+ policies key on.
package cachesim

// Level identifies which level of the hierarchy served an access.
type Level uint8

const (
	// L1Hit means the access hit in the L1.
	L1Hit Level = iota
	// L2Hit means the access missed L1 and hit L2.
	L2Hit
	// MemHit means the access missed the L2 and went to memory.
	MemHit
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	default:
		return "mem"
	}
}

// Config sizes the hierarchy. Zero values are replaced by Table 1 defaults
// in New.
type Config struct {
	LineSize int

	L1Size       int
	L1Assoc      int
	L1Latency    int
	L1ReadPorts  int
	L1WritePorts int

	L2Size    int
	L2Assoc   int
	L2Latency int

	MemLatency int

	DTLBEntries    int
	DTLBAssoc      int
	DTLBPageSize   int
	DTLBMissCycles int

	MSHRs int
}

// DefaultConfig returns the Table 1 memory configuration.
func DefaultConfig() Config {
	return Config{
		LineSize:       64,
		L1Size:         32 << 10,
		L1Assoc:        2,
		L1Latency:      1,
		L1ReadPorts:    2,
		L1WritePorts:   2,
		L2Size:         4 << 20,
		L2Assoc:        8,
		L2Latency:      12,
		MemLatency:     60,
		DTLBEntries:    1024,
		DTLBAssoc:      8,
		DTLBPageSize:   4096,
		DTLBMissCycles: 20,
		MSHRs:          16,
	}
}

// WithDefaults returns the configuration with zero fields replaced by the
// Table 1 defaults — the exact values New would run with. Validation code
// (core.Config.Validate sizing the completion wheel) needs the effective
// latencies without building a hierarchy.
func (c Config) WithDefaults() Config {
	c.fillDefaults()
	return c
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.LineSize <= 0 {
		c.LineSize = d.LineSize
	}
	if c.L1Size <= 0 {
		c.L1Size = d.L1Size
	}
	if c.L1Assoc <= 0 {
		c.L1Assoc = d.L1Assoc
	}
	if c.L1Latency <= 0 {
		c.L1Latency = d.L1Latency
	}
	if c.L1ReadPorts <= 0 {
		c.L1ReadPorts = d.L1ReadPorts
	}
	if c.L1WritePorts <= 0 {
		c.L1WritePorts = d.L1WritePorts
	}
	if c.L2Size <= 0 {
		c.L2Size = d.L2Size
	}
	if c.L2Assoc <= 0 {
		c.L2Assoc = d.L2Assoc
	}
	if c.L2Latency <= 0 {
		c.L2Latency = d.L2Latency
	}
	if c.MemLatency <= 0 {
		c.MemLatency = d.MemLatency
	}
	if c.DTLBEntries <= 0 {
		c.DTLBEntries = d.DTLBEntries
	}
	if c.DTLBAssoc <= 0 {
		c.DTLBAssoc = d.DTLBAssoc
	}
	if c.DTLBPageSize <= 0 {
		c.DTLBPageSize = d.DTLBPageSize
	}
	if c.DTLBMissCycles <= 0 {
		c.DTLBMissCycles = d.DTLBMissCycles
	}
	if c.MSHRs <= 0 {
		c.MSHRs = d.MSHRs
	}
}

// setAssocCache is an LRU set-associative tag array.
type setAssocCache struct {
	sets      int
	assoc     int
	shift     uint // log2(line or page size)
	tags      []uint64
	valid     []bool
	lastUse   []int64
	setMask   uint64
	wayStride int
}

// reset empties c and sizes it for totalEntries entries in assoc ways with
// blocks of 1<<shift bytes, the set count rounded down to a power of two.
// It keeps c's arrays when the geometry (sets × ways) is unchanged and
// then clears only the valid bits: access and probe never read the tag or
// LRU stamp of an invalid way.
func (c *setAssocCache) reset(totalEntries, assoc int, shift uint) {
	if assoc <= 0 {
		assoc = 1
	}
	sets := totalEntries / assoc
	if sets <= 0 {
		sets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	c.shift = shift
	if c.sets == sets && c.assoc == assoc {
		clear(c.valid)
		return
	}
	n := sets * assoc
	*c = setAssocCache{
		sets:      sets,
		assoc:     assoc,
		shift:     shift,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		lastUse:   make([]int64, n),
		setMask:   uint64(sets - 1),
		wayStride: assoc,
	}
}

// access looks up addr at time now, filling on miss; it reports hit/miss.
// It reads a way's tag and lastUse only when the way is valid, and fills a
// way by writing all three. That invariant is what lets reset clear only
// the valid bits of a recycled array.
//
//smtlint:noalloc
func (c *setAssocCache) access(addr uint64, now int64) bool {
	block := addr >> c.shift
	set := int(block & c.setMask)
	base := set * c.wayStride
	victim := base
	oldest := int64(1<<62 - 1)
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == block {
			c.lastUse[i] = now
			return true
		}
		if !c.valid[i] {
			victim = i
			oldest = -1 << 62
		} else if c.lastUse[i] < oldest {
			victim = i
			oldest = c.lastUse[i]
		}
	}
	c.tags[victim] = block
	c.valid[victim] = true
	c.lastUse[victim] = now
	return false
}

// probe reports whether addr is present without updating any state.
//
//smtlint:noalloc
func (c *setAssocCache) probe(addr uint64) bool {
	block := addr >> c.shift
	set := int(block & c.setMask)
	base := set * c.wayStride
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == block {
			return true
		}
	}
	return false
}

// Result describes one access through the hierarchy.
type Result struct {
	// Level is the level that served the access.
	Level Level
	// DoneAt is the cycle the data is available.
	DoneAt int64
	// TLBMiss reports whether the access also took a DTLB miss.
	TLBMiss bool
}

// Stats aggregates hierarchy counters.
type Stats struct {
	L1Accesses, L1Misses   uint64
	L2Accesses, L2Misses   uint64
	TLBAccesses, TLBMisses uint64
	Coalesced              uint64
}

// Hierarchy is the shared L1+L2+memory model. It is not safe for concurrent
// use; each simulated processor owns one.
type Hierarchy struct {
	cfg  Config
	l1   setAssocCache
	l2   setAssocCache
	dtlb setAssocCache

	lineShift uint

	// mshr tracks in-flight line fills in a fixed-slot table.
	mshr mshrTable

	// port accounting for the current cycle
	portCycle  int64
	readsUsed  int
	writesUsed int

	stats Stats
}

// New builds a hierarchy from cfg (zero fields take Table 1 defaults).
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(cfg)
	return h
}

// Reset makes h the hierarchy New(cfg) returns, in place: empty caches,
// no fill in flight, zero counters. A tag array whose geometry cfg leaves
// unchanged is cleared rather than reallocated, so a sweep that varies
// latencies, MSHRs or nothing at all reuses all three arrays.
func (h *Hierarchy) Reset(cfg Config) {
	cfg.fillDefaults()
	h.cfg = cfg
	h.lineShift = log2(cfg.LineSize)
	h.l1.reset(cfg.L1Size/cfg.LineSize, cfg.L1Assoc, h.lineShift)
	h.l2.reset(cfg.L2Size/cfg.LineSize, cfg.L2Assoc, h.lineShift)
	h.dtlb.reset(cfg.DTLBEntries, cfg.DTLBAssoc, log2(cfg.DTLBPageSize))
	h.mshr.reset(cfg.MSHRs)
	h.portCycle, h.readsUsed, h.writesUsed = 0, 0, 0
	h.stats = Stats{}
}

// mshrTable tracks in-flight line fills: (line block, completion cycle)
// pairs in a flat slot array scanned linearly. A slot whose done cycle has
// passed is dead and reusable — there is no explicit delete. With Table 1's
// 16 MSHRs the whole table is two cache lines, so the scan beats the
// map[uint64]int64 it replaced (hash + bucket walk per memory access, plus
// map iteration garbage on every occupancy check) by a wide margin.
//
// The table starts at the configured MSHR count but can exceed it: loads
// arbitrate through Available before inserting, but stores access the cache
// at retirement without an MSHR gate (Table 1 retires stores through the L1
// write ports), so insert grows the slot array on overflow rather than
// dropping a fill. Growth is amortized and stops at the workload's
// high-water mark; steady-state operation never allocates.
type mshrTable struct {
	lines []uint64
	done  []int64
	mshrs int // configured MSHR count (Available's threshold)
}

// reset empties the table for mshrs MSHRs, keeping its slot arrays.
func (m *mshrTable) reset(mshrs int) {
	m.mshrs = mshrs
	if cap(m.lines) < mshrs || cap(m.done) < mshrs {
		m.lines = make([]uint64, 0, mshrs)
		m.done = make([]int64, 0, mshrs)
	}
	m.lines = m.lines[:0]
	m.done = m.done[:0]
}

// available reports whether a new outstanding miss can be tracked at now:
// fewer than the configured MSHR count of fills are still in flight.
//
//smtlint:noalloc
func (m *mshrTable) available(now int64) bool {
	live := 0
	for _, d := range m.done {
		if d > now {
			live++
		}
	}
	return live < m.mshrs
}

// lookup returns the completion cycle of an in-flight fill of line, or
// (0, false) when none is pending.
//
//smtlint:noalloc
func (m *mshrTable) lookup(line uint64, now int64) (int64, bool) {
	for i, l := range m.lines {
		if l == line && m.done[i] > now {
			return m.done[i], true
		}
	}
	return 0, false
}

// insert records a fill of line completing at done, reusing the line's own
// slot or any expired slot before growing the table.
//
//smtlint:noalloc
func (m *mshrTable) insert(line uint64, doneAt, now int64) {
	free := -1
	for i, l := range m.lines {
		if l == line {
			m.done[i] = doneAt
			return
		}
		if free < 0 && m.done[i] <= now {
			free = i
		}
	}
	if free >= 0 {
		m.lines[free] = line
		m.done[free] = doneAt
		return
	}
	//smtlint:allow tracker grows to peak outstanding-line population, then reuses slots
	m.lines = append(m.lines, line)
	//smtlint:allow grows in lockstep with lines above
	m.done = append(m.done, doneAt)
}

func log2(n int) uint {
	var s uint
	for 1<<s < n {
		s++
	}
	return s
}

// Config returns the (default-filled) configuration in use.
func (h *Hierarchy) Config() Config { return h.cfg }

//smtlint:noalloc
func (h *Hierarchy) rollPorts(now int64) {
	if now != h.portCycle {
		h.portCycle = now
		h.readsUsed = 0
		h.writesUsed = 0
	}
}

// TryReadPort claims an L1 read port for cycle now; it reports success.
//
//smtlint:noalloc
func (h *Hierarchy) TryReadPort(now int64) bool {
	h.rollPorts(now)
	if h.readsUsed >= h.cfg.L1ReadPorts {
		return false
	}
	h.readsUsed++
	return true
}

// TryWritePort claims an L1 write port for cycle now; it reports success.
//
//smtlint:noalloc
func (h *Hierarchy) TryWritePort(now int64) bool {
	h.rollPorts(now)
	if h.writesUsed >= h.cfg.L1WritePorts {
		return false
	}
	h.writesUsed++
	return true
}

// MSHRAvailable reports whether a new outstanding miss can be tracked at
// cycle now (expired slots count as free; they are reused in place).
//
//smtlint:noalloc
func (h *Hierarchy) MSHRAvailable(now int64) bool {
	return h.mshr.available(now)
}

// Access performs a data access at cycle now and returns where it was
// served and when it completes. The caller is responsible for port and MSHR
// arbitration via TryReadPort/TryWritePort/MSHRAvailable.
//
//smtlint:noalloc
func (h *Hierarchy) Access(addr uint64, now int64) Result {
	lat := int64(0)
	var res Result

	h.stats.TLBAccesses++
	if !h.dtlb.access(addr, now) {
		h.stats.TLBMisses++
		res.TLBMiss = true
		lat += int64(h.cfg.DTLBMissCycles)
	}

	line := addr >> h.lineShift

	// Coalesce with an in-flight fill of the same line.
	if done, ok := h.mshr.lookup(line, now); ok {
		h.stats.Coalesced++
		res.Level = MemHit
		res.DoneAt = done + lat
		return res
	}

	h.stats.L1Accesses++
	if h.l1.access(addr, now) {
		res.Level = L1Hit
		res.DoneAt = now + lat + int64(h.cfg.L1Latency)
		return res
	}
	h.stats.L1Misses++

	h.stats.L2Accesses++
	if h.l2.access(addr, now) {
		res.Level = L2Hit
		res.DoneAt = now + lat + int64(h.cfg.L1Latency+h.cfg.L2Latency)
		return res
	}
	h.stats.L2Misses++

	res.Level = MemHit
	res.DoneAt = now + lat + int64(h.cfg.L1Latency+h.cfg.L2Latency+h.cfg.MemLatency)
	h.mshr.insert(line, res.DoneAt, now)
	return res
}

// ProbeL2 reports whether addr currently resides in the L2 (no state change).
//
//smtlint:noalloc
func (h *Hierarchy) ProbeL2(addr uint64) bool { return h.l2.probe(addr) }

// ProbeL1 reports whether addr currently resides in the L1 (no state change).
//
//smtlint:noalloc
func (h *Hierarchy) ProbeL1(addr uint64) bool { return h.l1.probe(addr) }

// Stats returns a copy of the counters.
//
//smtlint:noalloc
func (h *Hierarchy) Stats() Stats { return h.stats }
