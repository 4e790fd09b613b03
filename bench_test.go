// Package clustersmt's top-level benchmark harness: raw simulator speed on
// the Table 1 machine, ablations of the design choices DESIGN.md §5 calls
// out, and trace-generator throughput. The paper's figures are pinned by
// the figure goldens and internal/figures' reducer tests instead.
package clustersmt_test

import (
	"fmt"
	"testing"

	"clustersmt/internal/core"
	"clustersmt/internal/policy"
	"clustersmt/internal/steer"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// benchTraceLen keeps per-benchmark wall time manageable while staying well
// past the warm-up region.
const benchTraceLen = 20000

// BenchmarkTable1Machine measures raw simulator speed on the Table 1
// baseline (cycles simulated per second appear as ns/cycle inverse).
func BenchmarkTable1Machine(b *testing.B) {
	w, err := workload.Find("ispec00.mix.2.1")
	if err != nil {
		b.Fatal(err)
	}
	var progs []core.ThreadProgram
	for i, prof := range w.Threads {
		g := trace.NewGenerator(prof, w.Seeds[i])
		progs = append(progs, core.ThreadProgram{Trace: g.Generate(benchTraceLen), Profile: prof, Seed: w.Seeds[i]})
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		p, err := core.NewScheme(core.DefaultConfig(2), "cdprf", progs)
		if err != nil {
			b.Fatal(err)
		}
		st := p.Run()
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
}

// --- ablations (DESIGN.md §5) --------------------------------------------

func ablationProgs(b *testing.B) []core.ThreadProgram {
	b.Helper()
	w, err := workload.Find("server.mix.2.1")
	if err != nil {
		b.Fatal(err)
	}
	var progs []core.ThreadProgram
	for i, prof := range w.Threads {
		g := trace.NewGenerator(prof, w.Seeds[i])
		progs = append(progs, core.ThreadProgram{Trace: g.Generate(benchTraceLen), Profile: prof, Seed: w.Seeds[i]})
	}
	return progs
}

// BenchmarkAblationWakeup compares the event-driven wakeup (register-ready
// broadcast + per-cluster ready lists) against the pre-refactor per-cycle
// polling scan of the whole issue queue (Config.PollingWakeup). Both modes
// produce bit-for-bit identical statistics (TestWakeupEquivalence in
// internal/core); only cycles/s may differ.
func BenchmarkAblationWakeup(b *testing.B) {
	w, err := workload.Find("ispec00.mix.2.1")
	if err != nil {
		b.Fatal(err)
	}
	var progs []core.ThreadProgram
	for i, prof := range w.Threads {
		g := trace.NewGenerator(prof, w.Seeds[i])
		progs = append(progs, core.ThreadProgram{Trace: g.Generate(benchTraceLen), Profile: prof, Seed: w.Seeds[i]})
	}
	for _, mode := range []struct {
		name    string
		polling bool
	}{{"event", false}, {"polling-scan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(2)
				cfg.PollingWakeup = mode.polling
				p, err := core.NewScheme(cfg, "cdprf", progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles += p.Run().Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
		})
	}
}

// BenchmarkAblationLinks sweeps inter-cluster link bandwidth.
func BenchmarkAblationLinks(b *testing.B) {
	progs := ablationProgs(b)
	for _, links := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(2)
				cfg.Net.Links = links
				p, err := core.NewScheme(cfg, "cssp", progs)
				if err != nil {
					b.Fatal(err)
				}
				ipc = p.Run().IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationCDPRFInterval sweeps the CDPRF re-threshold interval
// (the paper picks 128K cycles; see policy.DefaultRFConfig).
func BenchmarkAblationCDPRFInterval(b *testing.B) {
	progs := ablationProgs(b)
	for _, interval := range []int64{2048, 8192, 16384, 65536, 131072} {
		b.Run(fmt.Sprintf("interval=%d", interval), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(2)
				rfCfg := policy.DefaultRFConfig(2)
				rfCfg.Interval = interval
				p, err := core.New(cfg, policy.NewIcount(2), policy.NewCSSP(),
					policy.NewCDPRF(rfCfg), nil, progs)
				if err != nil {
					b.Fatal(err)
				}
				ipc = p.Run().IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationSteering compares the baseline dependence/balance
// steering against round-robin (Raasch et al.) and static modulo.
func BenchmarkAblationSteering(b *testing.B) {
	progs := ablationProgs(b)
	steerers := map[string]func() steer.Steerer{
		"dep-balance": func() steer.Steerer { return steer.DependenceBalance{BalanceSlack: 6} },
		"round-robin": func() steer.Steerer { return steer.NewRoundRobin(2) },
		"modulo":      func() steer.Steerer { return steer.Modulo{} },
	}
	for name, mk := range steerers {
		b.Run(name, func(b *testing.B) {
			var ipc, copies float64
			for i := 0; i < b.N; i++ {
				s, err := policy.Lookup("cssp")
				if err != nil {
					b.Fatal(err)
				}
				sel, iq, rf := s.New(2)
				p, err := core.New(core.DefaultConfig(2), sel, iq, rf, mk(), progs)
				if err != nil {
					b.Fatal(err)
				}
				st := p.Run()
				ipc = st.IPC()
				copies = st.CopiesPerRetired()
			}
			b.ReportMetric(ipc, "ipc")
			b.ReportMetric(copies, "copies/ret")
		})
	}
}

// BenchmarkAblationGuarantee sweeps CSPSP's guaranteed fraction.
func BenchmarkAblationGuarantee(b *testing.B) {
	progs := ablationProgs(b)
	for _, frac := range []float64{0.125, 0.25, 0.375, 0.5} {
		b.Run(fmt.Sprintf("guarantee=%.3f", frac), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				p, err := core.New(core.DefaultConfig(2), policy.NewIcount(2),
					&policy.CSPSP{GuaranteeFrac: frac},
					policy.NoRF{}, nil, progs)
				if err != nil {
					b.Fatal(err)
				}
				ipc = p.Run().IPC()
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkGeneratorThroughput measures trace generation speed.
func BenchmarkGeneratorThroughput(b *testing.B) {
	prof := trace.MixProfile("bench")
	g := trace.NewGenerator(prof, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
