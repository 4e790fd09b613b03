// Package clustersmt's top-level benchmark harness: one testing.B benchmark
// per paper table/figure (DESIGN.md §4) plus ablations of the design
// choices DESIGN.md §5 calls out. Each figure benchmark regenerates its
// artifact on a reduced, type-balanced pool and reports the headline series
// as custom metrics, so `go test -bench=. -benchmem` both exercises the
// full pipeline and prints the reproduced numbers.
package clustersmt_test

import (
	"context"
	"fmt"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/core"
	"clustersmt/internal/figures"
	"clustersmt/internal/policy"
	"clustersmt/internal/steer"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// benchTraceLen keeps per-benchmark wall time manageable while staying well
// past the warm-up region.
const benchTraceLen = 20000

// benchTemplate is the figure benchmarks' campaign template: at most two
// workloads of each listed category (nil: all) at benchTraceLen.
func benchTemplate(cats ...string) campaign.Manifest {
	return campaign.Manifest{Categories: cats, MaxPerCategory: 2, TraceLens: []int{benchTraceLen}}
}

// runFigure runs f on a fresh memory-only engine and returns its value.
func runFigure[T any](b *testing.B, f figures.Figure) T {
	b.Helper()
	res, err := f.Run(context.Background(), &campaign.Engine{Resume: true})
	if err != nil {
		b.Fatal(err)
	}
	return res.Value.(T)
}

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

// BenchmarkTable2Pool regenerates the 120-workload pool (Table 2).
func BenchmarkTable2Pool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pool := workload.Pool()
		if len(pool) != 120 {
			b.Fatalf("pool size %d", len(pool))
		}
	}
}

// BenchmarkFig2IQSchemes regenerates Figure 2 (7 schemes x {32,64} IQ).
func BenchmarkFig2IQSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := runFigure[*figures.CategorySeries](b, figures.Fig2(benchTemplate(), policy.PaperIQSchemes(), []int{32, 64}))
		b.ReportMetric(cs.Values["cssp/32"]["AVG"], "cssp32_speedup")
		b.ReportMetric(cs.Values["pc/32"]["AVG"], "pc32_speedup")
	}
}

// BenchmarkFig3Copies regenerates Figure 3 (copies per retired uop).
func BenchmarkFig3Copies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := runFigure[*figures.CategorySeries](b, figures.Fig3(benchTemplate(), policy.PaperIQSchemes()))
		b.ReportMetric(cs.Values["cssp"]["AVG"], "cssp_copies_per_ret")
		b.ReportMetric(cs.Values["pc"]["AVG"], "pc_copies_per_ret")
	}
}

// BenchmarkFig4IQStalls regenerates Figure 4 (IQ stalls per retired uop).
func BenchmarkFig4IQStalls(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := runFigure[*figures.CategorySeries](b, figures.Fig4(benchTemplate(), policy.PaperIQSchemes()))
		b.ReportMetric(cs.Values["icount"]["AVG"], "icount_stalls_per_ret")
	}
}

// BenchmarkFig5Imbalance regenerates Figure 5 (workload imbalance).
func BenchmarkFig5Imbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFigure[*figures.Fig5Result](b, figures.Fig5(benchTemplate(), []string{"icount", "cisp", "cssp", "pc"}))
		pc := res.Frac["AVG"]["pc"]
		cssp := res.Frac["AVG"]["cssp"]
		// kind 1 = true imbalance (other cluster had a free port)
		b.ReportMetric(pc[0][1]+pc[1][1]+pc[2][1], "pc_imbalance")
		b.ReportMetric(cssp[0][1]+cssp[1][1]+cssp[2][1], "cssp_imbalance")
	}
}

// BenchmarkFig6RegFile regenerates Figure 6 (RF schemes at 64/128 regs).
func BenchmarkFig6RegFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := runFigure[*figures.CategorySeries](b, figures.Fig6(benchTemplate(), policy.PaperRFSchemes(), []int{64, 128}))
		b.ReportMetric(cs.Values["cssprf/64"]["AVG"], "cssprf64")
		b.ReportMetric(cs.Values["cisprf/64"]["AVG"], "cisprf64")
	}
}

// BenchmarkFig9CDPRF regenerates Figure 9 (CDPRF on ISPEC-FSPEC).
func BenchmarkFig9CDPRF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runFigure[*figures.Fig9Result](b, figures.Fig9(benchTemplate(), []string{"cssp", "cssprf", "cisprf", "cdprf"}))
		b.ReportMetric(res.Speedup["AVG"]["cdprf"], "cdprf_isfs")
		b.ReportMetric(res.Speedup["AVG"]["cisprf"], "cisprf_isfs")
	}
}

// BenchmarkFig10Fairness regenerates Figure 10 (fairness vs Icount).
func BenchmarkFig10Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cs := runFigure[*figures.CategorySeries](b, figures.Fig10(benchTemplate("ispec00", "server", "mixes"),
			[]string{"stall", "flush+", "cssp", "cdprf"}))
		b.ReportMetric(cs.Values["cdprf"]["AVG"], "cdprf_fairness")
	}
}

// BenchmarkHeadline regenerates the §1/§6 claim (paper: +17.6%, +24%).
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := runFigure[*figures.HeadlineResult](b, figures.Headline(benchTemplate()))
		b.ReportMetric(h.CDPRFSpeedup, "cdprf_speedup")
		b.ReportMetric(h.FairnessRatio, "cdprf_fairness")
	}
}

// BenchmarkFutureWork compares the §6 adaptations against CDPRF.
func BenchmarkFutureWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := runFigure[map[string]float64](b, figures.FutureWork(benchTemplate("ispec00", "server")))
		b.ReportMetric(out["dcra"], "dcra_speedup")
		b.ReportMetric(out["hillclimb"], "hillclimb_speedup")
	}
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
