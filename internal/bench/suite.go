package bench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"clustersmt/internal/cachesim"
	"clustersmt/internal/campaign"
	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/figures"
	"clustersmt/internal/isa"
	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
	"clustersmt/internal/steer"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// entry is one suite benchmark: its report name and its body. Run measures
// the body through testing.Benchmark; BenchmarkSuite runs it under `go
// test -bench` as a sub-benchmark of the same name.
type entry struct {
	name string
	body func(*testing.B)
}

// benchTraceLen keeps a simulation's wall time manageable while staying
// well past the warm-up region.
const benchTraceLen = 20000

// suite returns the fixed benchmark list. Order is the report order; quick
// shrinks the headline run.
func suite(quick bool) []entry {
	headlineLen := 12000
	if quick {
		headlineLen = 4000
	}
	return []entry{
		{"Table1Machine", simulate(false)},
		{"AblationWakeup/event", simulate(false)},
		{"AblationWakeup/polling", simulate(true)},
		{"AblationSteering/dep-balance", steering(func() steer.Steerer { return steer.DependenceBalance{BalanceSlack: 6} })},
		{"AblationSteering/round-robin", steering(func() steer.Steerer { return steer.NewRoundRobin(2) })},
		{"AblationSteering/modulo", steering(func() steer.Steerer { return steer.Modulo{} })},
		{"Headline", headline(headlineLen)},
		{"Cachesim", cachesimAccess},
		{"GeneratorThroughput", generatorThroughput},
		{"SteadyAlloc", steadyAlloc},
	}
}

// metricKinds declares, by unit, how the report carries and Diff gates
// each metric a body reports with b.ReportMetric. Simulated outcomes are
// deterministic, so they gate as equalities: a change in either direction
// means simulated behavior changed.
var metricKinds = map[string]Metric{
	"cycles/s":      {Unit: "cycles/s", Better: BetterHigher, HostDependent: true},
	"sim-cycles/op": {Unit: "cycles", Better: BetterEqual},
	"ipc":           {Better: BetterEqual},
	"copies/ret":    {Better: BetterEqual},
	"cdprf-speedup": {Better: BetterEqual},
	"fairness":      {Better: BetterEqual},
	"accesses/s":    {Unit: "accesses/s", Better: BetterHigher, HostDependent: true},
	"allocs/2kcyc":  {Better: BetterLower},
}

// table1 returns the spec of workload name under scheme on the Table 1
// machine: 32-entry IQs, 128-entry ROB sections and the default register
// files. Programs and Machine turn it into a simulation, as they do every
// campaign item.
func table1(b *testing.B, name, scheme string) experiments.Spec {
	w, err := workload.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(len(w.Threads))
	return experiments.Spec{
		Workload: w, Scheme: scheme, SingleThread: -1,
		IQSize: cfg.IQSize, RegsPerClust: cfg.IntRegsPerCluster, ROBPerThread: cfg.ROBPerThread,
	}
}

// finish runs a freshly built processor to completion; a build error or a
// run stopped at its cycle bound fails the benchmark.
func finish(b *testing.B, p *core.Processor, err error) *metrics.Stats {
	if err != nil {
		b.Fatal(err)
	}
	st, err := experiments.Simulate(b.Context(), p)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// simulate runs full CDPRF simulations of ispec00.mix.2.1 on the Table 1
// machine and reports the host-dependent throughput (cycles/s) beside the
// deterministic simulated cycle count per run, which doubles as a coarse
// behavioral-equivalence check in `bench diff`. With polling the machine
// scans the whole issue queue every cycle instead of waking instructions
// on register-ready events; both produce identical statistics
// (TestWakeupEquivalence), so the pair isolates the scheduler's cost.
func simulate(polling bool) func(*testing.B) {
	return func(b *testing.B) {
		s := table1(b, "ispec00.mix.2.1", "cdprf")
		progs := experiments.Programs(s, benchTraceLen)
		cfg := experiments.Machine(s, benchTraceLen)
		cfg.PollingWakeup = polling
		b.ResetTimer()
		var cycles int64
		for range b.N {
			p, err := core.NewScheme(cfg, s.Scheme, progs)
			finish(b, p, err)
			cycles += p.Now() // warm-up included: every cycle simulated
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
	}
}

// steering runs CSSP on server.mix.2.1 with cluster steering mk against the
// baseline dependence/balance steering, round-robin (Raasch et al.) and
// static modulo. Steering has no registry component, so the processor is
// assembled from the scheme's parsed components and the steerer.
func steering(mk func() steer.Steerer) func(*testing.B) {
	return func(b *testing.B) {
		s := table1(b, "server.mix.2.1", "cssp")
		progs := experiments.Programs(s, benchTraceLen)
		cfg := experiments.Machine(s, benchTraceLen)
		sp, err := policy.ParseSpec(s.Scheme)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var st *metrics.Stats
		for range b.N {
			sel, iq, rf, err := sp.New(cfg.NumThreads)
			if err != nil {
				b.Fatal(err)
			}
			p, err := core.New(cfg, sel, iq, rf, mk(), progs)
			st = finish(b, p, err)
		}
		b.ReportMetric(st.IPC(), "ipc")
		b.ReportMetric(st.CopiesPerRetired(), "copies/ret")
	}
}

// headline runs the §1/§6 headline experiment end to end (campaign
// expansion, trace synthesis, the scheme set, speedup aggregation) on a
// reduced pool at traceLen uops, on a fresh memory-only, one-worker engine
// per op. The speedup is deterministic for a given length, so it gates as
// an equality.
//
// allocs/op and B/op gate as deterministic metrics too, so the op must
// allocate the same on every host and in every run. The engine hands each
// finished processor's cache tag arrays to a sync.Pool, so an op's
// allocation depends on how many processors run at once (the worker
// count, NumCPU by default) and on what the pool holds, which every
// collection and every move of a worker to another P changes: over six
// quick runs on two workers, B/op read 17.6 to 19.3 MB. Each op therefore
// runs on one worker and one P with the collector paused, after two
// collections outside the timer empty the pool. An untimed first op takes
// the process's one-time setup, which would otherwise land in a one-op run
// (quick mode on a slow host) and not in a longer one.
func headline(traceLen int) func(*testing.B) {
	return func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		fig := figures.Headline(campaign.Manifest{TraceLens: []int{traceLen}, MaxPerCategory: 1})
		op := func() *figures.HeadlineResult {
			b.StopTimer()
			runtime.GC()
			runtime.GC()
			b.StartTimer()
			plan, err := figures.Plan(fig)
			if err != nil {
				b.Fatal(err)
			}
			res, _, err := figures.Run(b.Context(), &campaign.Engine{Resume: true, Workers: 1}, plan, fig)
			if err != nil {
				b.Fatal(err)
			}
			return res[0].Value.(*figures.HeadlineResult)
		}
		op()
		b.ResetTimer()
		var last *figures.HeadlineResult
		for range b.N {
			last = op()
		}
		b.ReportMetric(last.CDPRFSpeedup, "cdprf-speedup")
		b.ReportMetric(last.FairnessRatio, "fairness")
	}
}

// cachesimAccess stresses the memory hierarchy in isolation: a
// deterministic address stream mixing a hot set (L1 hits), a walked array
// (L2/TLB traffic) and scattered misses (MSHR pressure), one Access per op.
// The stream and the hierarchy are built, and the stream run through once,
// before the timer starts: construction and the MSHR table's growth to its
// high-water mark would otherwise land in the per-op figures, amortized
// over a host-dependent b.N.
func cachesimAccess(b *testing.B) {
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
	h := cachesim.New(core.DefaultConfig(2).Cache)
	for i, a := range addrs {
		h.Access(a, int64(i))
	}
	b.ResetTimer()
	for i := range b.N {
		h.Access(addrs[i%streamLen], int64(streamLen+i))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// uopSink keeps the generator's output live so the compiler cannot drop
// the measured call.
var uopSink isa.Uop

// generatorThroughput measures trace synthesis speed, one uop per op.
func generatorThroughput(b *testing.B) {
	g := trace.NewGenerator(trace.MixProfile("bench"), 1)
	b.ResetTimer()
	for range b.N {
		uopSink = g.Next()
	}
}

// steadyAlloc is the allocation gate in benchmark form: the same
// warm-then-count measurement as core.TestSteadyStateZeroAlloc, reported as
// allocations per 2000 steady-state cycles. The expected value is exactly 0
// and the metric is deterministic, so `bench diff` gates it tightly. The
// count needs a machine warmed to its pooled structures' high-water marks,
// which a b.N-cycle loop cannot promise on a finite trace, so each op is
// one whole measurement on a fresh processor, the timer covers only its
// counted cycles, and the worst op is reported. There is no quick-mode
// reduction: a shorter warm-up stops before the high-water marks and
// reports phantom allocations.
func steadyAlloc(b *testing.B) {
	const traceLen, warm, runs, window = 400000, 30000, 5, 2000
	b.StopTimer()
	s := table1(b, "ispec00.mix.2.1", "cdprf")
	progs := experiments.Programs(s, traceLen)
	cfg := experiments.Machine(s, traceLen)
	worst := 0.0
	for range b.N {
		p, err := core.NewScheme(cfg, s.Scheme, progs)
		if err != nil {
			b.Fatal(err)
		}
		for range warm {
			p.Step()
		}
		b.StartTimer()
		worst = max(worst, testing.AllocsPerRun(runs, func() {
			for range window {
				p.Step()
			}
		}))
		b.StopTimer()
		if p.Done() {
			b.Fatal("machine drained during measurement; lengthen the traces")
		}
	}
	b.ReportMetric(worst, "allocs/2kcyc")
}
