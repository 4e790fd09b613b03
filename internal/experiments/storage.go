package experiments

import (
	"slices"
	"sync"

	"clustersmt/internal/core"
	"clustersmt/internal/isa"
)

// Storage holds what finished simulations leave behind for later ones to
// reuse: their released machines (core.Spares) and the buffers of
// forgotten traces. Every runner draws on one. NewRunner gives each runner
// its own; the campaign engine points all of its runners, whatever their
// trace lengths, at a single one, so a machine or a buffer one length
// leaves serves the next. Nothing is set aside ahead of need: a machine is
// built only when none is spare, and a new buffer replaces a free one only
// when none covers the trace, so the lists never hold more than the
// runners sharing them have had in use at once. The zero value is empty
// and ready; a Storage is safe for concurrent use.
type Storage struct {
	machines core.Spares

	mu sync.Mutex
	// traces holds free trace buffers, the most recently freed last.
	traces [][]isa.Uop
}

// traceBufGrain is the granularity, in uops, of a new trace buffer's
// capacity: 256 uops, 6 KB. A buffer then also fits a trace a little
// longer than the one it was made for, such as the next of a run of
// submissions whose lengths step by one uop.
const traceBufGrain = 256

// takeTrace returns a buffer of n uops for a new trace to be generated
// into: the most recently freed buffer whose capacity covers n, taken off
// the free list. When none does, the most recently freed buffer is
// dropped and a new one takes its place, its capacity rounded up to
// traceBufGrain.
func (s *Storage) takeTrace(n int) []isa.Uop {
	s.mu.Lock()
	i := len(s.traces) - 1
	for i >= 0 && cap(s.traces[i]) < n {
		i--
	}
	if i < 0 {
		i = len(s.traces) - 1
	}
	var b []isa.Uop
	if i >= 0 {
		b = s.traces[i]
		s.traces = slices.Delete(s.traces, i, i+1)
	}
	s.mu.Unlock()
	if cap(b) < n {
		b = make([]isa.Uop, n, (n+traceBufGrain-1)/traceBufGrain*traceBufGrain)
	}
	return b[:n]
}

// putTrace puts the buffer of a trace no simulation reads any more on the
// free list.
func (s *Storage) putTrace(b []isa.Uop) {
	s.mu.Lock()
	s.traces = append(s.traces, b)
	s.mu.Unlock()
}
