package bench

import (
	"fmt"
	"testing"
	"time"

	"clustersmt/internal/cachesim"
	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// benchDef is one suite entry: run executes it under the given options and
// returns the filled Benchmark.
type benchDef struct {
	name string
	run  func(o Options) (Benchmark, error)
}

// benchTraceLen matches the top-level `go test -bench` harness so the
// Table1Machine numbers line up between the two.
const benchTraceLen = 20000

// suite returns the fixed benchmark list. Order is the report order.
func suite() []benchDef {
	return []benchDef{
		{"Table1Machine", benchTable1},
		{"AblationWakeup/event", benchWakeup(false)},
		{"AblationWakeup/polling", benchWakeup(true)},
		{"Headline", benchHeadline},
		{"Cachesim", benchCachesim},
		{"SteadyAlloc", benchSteadyAlloc},
	}
}

// table1Progs builds the shared Table 1 benchmark programs.
func table1Progs() ([]core.ThreadProgram, error) {
	w, err := workload.Find("ispec00.mix.2.1")
	if err != nil {
		return nil, err
	}
	var progs []core.ThreadProgram
	for i, prof := range w.Threads {
		g := trace.NewGenerator(prof, w.Seeds[i])
		progs = append(progs, core.ThreadProgram{
			Trace: g.Generate(benchTraceLen), Profile: prof, Seed: w.Seeds[i],
		})
	}
	return progs, nil
}

// simBench runs full simulations of the Table 1 machine and reports both
// the host-dependent throughput (cycles/s) and the deterministic simulated
// cycle count per run, which doubles as a coarse behavioral-equivalence
// check in `bench diff`.
func simBench(polling bool) func(o Options) (Benchmark, error) {
	return func(o Options) (Benchmark, error) {
		progs, err := table1Progs()
		if err != nil {
			return Benchmark{}, err
		}
		var firstErr error
		r := measure(o.Target, o.Reps, func(n int) map[string]float64 {
			var cycles int64
			for i := 0; i < n; i++ {
				cfg := core.DefaultConfig(2)
				cfg.PollingWakeup = polling
				p, err := core.NewScheme(cfg, "cdprf", progs)
				if err != nil {
					firstErr = err
					return nil
				}
				cycles += p.Run().Cycles
			}
			return map[string]float64{"cycles": float64(cycles)}
		})
		if firstErr != nil {
			return Benchmark{}, firstErr
		}
		return Benchmark{
			N:           r.n,
			NsPerOp:     float64(r.elapsed.Nanoseconds()) / float64(r.n),
			AllocsPerOp: r.allocsOp,
			BytesPerOp:  r.bytesOp,
			Metrics: map[string]Metric{
				"cycles/s": {
					Value: r.counters["cycles"] / r.elapsed.Seconds(),
					Unit:  "cycles/s", Better: BetterHigher, HostDependent: true,
				},
				"sim-cycles/op": {
					Value: r.counters["cycles"] / float64(r.n),
					Unit:  "cycles", Better: BetterEqual,
				},
			},
		}, nil
	}
}

func benchTable1(o Options) (Benchmark, error) {
	b, err := simBench(false)(o)
	b.Name = "Table1Machine"
	return b, err
}

// benchWakeup is the event-driven vs polling-scan wakeup ablation
// (DESIGN.md §5); both modes are bit-identical in results, so the pair
// isolates the scheduler-implementation cost.
func benchWakeup(polling bool) func(o Options) (Benchmark, error) {
	name := "AblationWakeup/event"
	if polling {
		name = "AblationWakeup/polling"
	}
	return func(o Options) (Benchmark, error) {
		b, err := simBench(polling)(o)
		b.Name = name
		return b, err
	}
}

// benchHeadline runs the §1/§6 headline experiment end to end (trace
// synthesis, the scheme set, speedup aggregation) on a reduced pool. The
// speedup itself is deterministic for a given mode, so it is gated as an
// equality metric.
func benchHeadline(o Options) (Benchmark, error) {
	traceLen := 12000
	if o.Quick {
		traceLen = 4000
	}
	var firstErr error
	var last *experiments.HeadlineResult
	r := measure(o.Target, o.Reps, func(n int) map[string]float64 {
		for i := 0; i < n; i++ {
			runner := experiments.NewRunner(traceLen)
			h, err := experiments.Headline(runner, experiments.Options{MaxPerCategory: 1})
			if err != nil {
				firstErr = err
				return nil
			}
			last = h
		}
		return nil
	})
	if firstErr != nil {
		return Benchmark{}, firstErr
	}
	return Benchmark{
		Name:        "Headline",
		N:           r.n,
		NsPerOp:     float64(r.elapsed.Nanoseconds()) / float64(r.n),
		AllocsPerOp: r.allocsOp,
		BytesPerOp:  r.bytesOp,
		Metrics: map[string]Metric{
			"cdprf-speedup": {Value: last.CDPRFSpeedup, Better: BetterEqual},
			"fairness":      {Value: last.FairnessRatio, Better: BetterEqual},
		},
	}, nil
}

// benchCachesim stresses the memory hierarchy in isolation: a deterministic
// address stream mixing a hot set (L1 hits), a walked array (L2/TLB
// traffic) and scattered misses (MSHR pressure), one Access per op.
func benchCachesim(o Options) (Benchmark, error) {
	const streamLen = 1 << 16
	addrs := make([]uint64, streamLen)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64: deterministic, dependency-free
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range addrs {
		r := next()
		switch {
		case i%4 != 0: // hot set: 8 KiB, L1-resident
			addrs[i] = (r % 128) * 64
		case i%8 == 0: // streaming walk through 4 MiB
			addrs[i] = 0x100000 + uint64(i)*64%(4<<20)
		default: // scattered: forces misses and MSHR churn
			addrs[i] = 0x10000000 + (r % (1 << 28))
		}
	}
	// One hierarchy serves every timed run, so its construction never
	// lands in the per-op figures (it would be amortized over a
	// host-dependent n); the clock keeps running across runs.
	h := cachesim.New(core.DefaultConfig(2).Cache)
	now := int64(0)
	r := measure(o.Target, o.Reps, func(n int) map[string]float64 {
		for i := 0; i < n; i++ {
			h.Access(addrs[i%streamLen], now)
			now++
		}
		return nil
	})
	return Benchmark{
		Name:        "Cachesim",
		N:           r.n,
		NsPerOp:     float64(r.elapsed.Nanoseconds()) / float64(r.n),
		AllocsPerOp: r.allocsOp,
		BytesPerOp:  r.bytesOp,
		Metrics: map[string]Metric{
			"accesses/s": {
				Value: float64(r.n) / r.elapsed.Seconds(),
				Unit:  "accesses/s", Better: BetterHigher, HostDependent: true,
			},
		},
	}, nil
}

// benchSteadyAlloc is the allocation gate in benchmark form: the same
// warm-then-count measurement as core.TestSteadyStateZeroAlloc, reported as
// allocations per 2000 steady-state cycles. The expected value is exactly 0
// and the metric is deterministic, so `bench diff` gates it tightly.
func benchSteadyAlloc(o Options) (Benchmark, error) {
	// No quick-mode reduction: a shorter warm-up stops before the pooled
	// structures reach their high-water marks and reports phantom
	// allocations, and the full measurement costs only about a second.
	traceLen, warm, runs := 400000, 30000, 5
	w, err := workload.Find("ispec00.mix.2.1")
	if err != nil {
		return Benchmark{}, err
	}
	var progs []core.ThreadProgram
	for i, prof := range w.Threads {
		g := trace.NewGenerator(prof, w.Seeds[i])
		progs = append(progs, core.ThreadProgram{
			Trace: g.Generate(traceLen), Profile: prof, Seed: w.Seeds[i],
		})
	}
	p, err := core.NewScheme(core.DefaultConfig(2), "cdprf", progs)
	if err != nil {
		return Benchmark{}, err
	}
	t0 := time.Now()
	for i := 0; i < warm; i++ {
		p.Step()
	}
	const window = 2000
	avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < window; i++ {
			p.Step()
		}
	})
	if p.Done() {
		return Benchmark{}, fmt.Errorf("machine drained during measurement; lengthen the traces")
	}
	elapsed := time.Since(t0)
	cycles := warm + (runs+1)*window
	return Benchmark{
		Name:    "SteadyAlloc",
		N:       cycles,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(cycles),
		Metrics: map[string]Metric{
			"allocs/2kcyc": {Value: avg, Better: BetterLower},
		},
	}, nil
}
