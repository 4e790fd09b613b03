package experiments

// Hooks for the external test package, which may import the campaign
// package (an import cycle for this package's own tests).
var (
	SessionKey     = Spec.key
	WorkloadDigest = workloadDigest
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
