package experiments

import "clustersmt/internal/isa"

// Hooks for the external test package, which may import the campaign
// package (an import cycle for this package's own tests).
var (
	SessionKey     = Spec.key
	WorkloadDigest = workloadDigest
	SameBufs       = sameBufs
)

// SetTraceMemoHook makes every runner call f, under its trace lock, each
// time it memoizes (and so generates) a trace: with the runner, the new
// trace's seed and the seeds of every trace it then holds. Nil removes the
// hook. Set it only while no runner is in use.
func SetTraceMemoHook(f func(r *Runner, seed uint64, memo []uint64)) {
	if f == nil {
		debugTraceMemo = nil
		return
	}
	debugTraceMemo = func(r *Runner, seed uint64, memo map[traceKey]*traceEntry) {
		seeds := make([]uint64, 0, len(memo))
		for k := range memo {
			seeds = append(seeds, k.seed)
		}
		f(r, seed, seeds)
	}
}

// TraceCount returns how many traces r holds memoized.
func TraceCount(r *Runner) int {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return len(r.traces)
}

// SpareMachines returns how many released machines s holds.
func SpareMachines(s *Storage) int { return s.machines.Len() }

// FreeTraceBuffers returns the first uop's address of each free trace
// buffer in s: a buffer's identity.
func FreeTraceBuffers(s *Storage) map[*isa.Uop]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	bufs := map[*isa.Uop]bool{}
	for _, b := range s.traces {
		bufs[&b[0]] = true
	}
	return bufs
}
