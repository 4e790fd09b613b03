package bench

import (
	"encoding/json"
	"flag"
	"math"
	"regexp"
	"strings"
	"testing"
)

func mkReport(quick bool, host string, benches ...Benchmark) *Report {
	return &Report{
		Schema: Schema, PR: PRNumber, GoVersion: "go1.x",
		GOOS: "linux", GOARCH: "amd64", NumCPU: 1,
		Host: host, Quick: quick, Reps: 1, Benchmarks: benches,
	}
}

func delta(t *testing.T, res *DiffResult, bench, metric string) Delta {
	t.Helper()
	for _, d := range res.Deltas {
		if d.Bench == bench && d.Metric == metric {
			return d
		}
	}
	t.Fatalf("no delta for %s/%s", bench, metric)
	return Delta{}
}

func TestDiffDirections(t *testing.T) {
	old := mkReport(false, "h1", Benchmark{
		Name: "Sim", NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4000,
		Metrics: map[string]Metric{
			"cycles/s":      {Value: 1e6, Better: BetterHigher, HostDependent: true},
			"sim-cycles/op": {Value: 5000, Better: BetterEqual},
			"note":          {Value: 1.0}, // informational, never gated
		},
	})
	cur := mkReport(false, "h1", Benchmark{
		// ns/op regressed 40% (within time-tol 0.5); allocs doubled
		// (fails tol 0.05); throughput dropped 60% (fails time-tol).
		Name: "Sim", NsPerOp: 1400, AllocsPerOp: 200, BytesPerOp: 4000,
		Metrics: map[string]Metric{
			"cycles/s":      {Value: 0.4e6, Better: BetterHigher, HostDependent: true},
			"sim-cycles/op": {Value: 5000, Better: BetterEqual},
			"note":          {Value: 9.0},
		},
	})
	res, err := Diff(old, cur, 0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, res, "Sim", "ns/op"); d.Regression || !d.Gated {
		t.Errorf("ns/op +40%% under time-tol 50%%: gated=%v regression=%v", d.Gated, d.Regression)
	}
	if d := delta(t, res, "Sim", "allocs/op"); !d.Regression {
		t.Error("allocs/op doubling must regress at tol 5%")
	}
	if d := delta(t, res, "Sim", "cycles/s"); !d.Regression {
		t.Error("throughput -60% must regress at time-tol 50%")
	}
	if d := delta(t, res, "Sim", "sim-cycles/op"); d.Regression || !d.Gated {
		t.Errorf("unchanged equal-metric: gated=%v regression=%v", d.Gated, d.Regression)
	}
	if d := delta(t, res, "Sim", "note"); d.Gated {
		t.Error("informational metric must not be gated")
	}
	if res.OK() {
		t.Error("diff with regressions reports OK")
	}
}

func TestDiffEqualMetricTwoSided(t *testing.T) {
	old := mkReport(false, "h1", Benchmark{Name: "B", NsPerOp: 1,
		Metrics: map[string]Metric{"speedup": {Value: 1.20, Better: BetterEqual}}})
	// An *improvement* in an equality-gated deterministic metric still
	// fails: simulated behavior changed.
	cur := mkReport(false, "h1", Benchmark{Name: "B", NsPerOp: 1,
		Metrics: map[string]Metric{"speedup": {Value: 1.35, Better: BetterEqual}}})
	res, err := Diff(old, cur, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, res, "B", "speedup"); !d.Regression {
		t.Error("equal-metric drift beyond tol must fail in both directions")
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	old := mkReport(false, "h1", Benchmark{Name: "Alloc", NsPerOp: 1,
		Metrics: map[string]Metric{"allocs/2kcyc": {Value: 0, Better: BetterLower}}})
	cur := mkReport(false, "h1", Benchmark{Name: "Alloc", NsPerOp: 1,
		Metrics: map[string]Metric{"allocs/2kcyc": {Value: 3, Better: BetterLower}}})
	res, err := Diff(old, cur, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(t, res, "Alloc", "allocs/2kcyc")
	if !math.IsInf(d.Rel, 1) || !d.Regression {
		t.Errorf("0 -> 3 allocs: rel=%v regression=%v, want +inf and fail", d.Rel, d.Regression)
	}
}

func TestDiffHostMismatchSkipsTime(t *testing.T) {
	old := mkReport(false, "h1", Benchmark{Name: "B", NsPerOp: 1000})
	cur := mkReport(false, "h2", Benchmark{Name: "B", NsPerOp: 9000})
	res, err := Diff(old, cur, 0.05, 0) // time-tol 0: wall-clock skipped
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, res, "B", "ns/op"); d.Gated {
		t.Error("time-tol 0 must skip wall-clock metrics")
	}
	if len(res.Notes) == 0 {
		t.Error("host mismatch must be noted")
	}
}

func TestDiffMissingBenchmark(t *testing.T) {
	old := mkReport(false, "h1",
		Benchmark{Name: "A", NsPerOp: 1}, Benchmark{Name: "Gone", NsPerOp: 1})
	cur := mkReport(false, "h1",
		Benchmark{Name: "A", NsPerOp: 1}, Benchmark{Name: "New", NsPerOp: 1})
	res, err := Diff(old, cur, 0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(t, res, "Gone", "(missing)"); !d.Regression {
		t.Error("a benchmark dropped from the suite must regress")
	}
	found := false
	for _, n := range res.Notes {
		if regexp.MustCompile(`New`).MatchString(n) {
			found = true
		}
	}
	if !found {
		t.Error("a new benchmark must be noted")
	}
}

func TestDiffQuickMismatch(t *testing.T) {
	old := mkReport(true, "h1", Benchmark{Name: "A", NsPerOp: 1})
	cur := mkReport(false, "h1", Benchmark{Name: "A", NsPerOp: 1})
	if _, err := Diff(old, cur, 0.05, 0.5); err == nil {
		t.Error("quick vs full reports must not be comparable")
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := mkReport(true, "h1", Benchmark{
		Name: "B", N: 10, NsPerOp: 123, AllocsPerOp: 4, BytesPerOp: 512,
		Metrics: map[string]Metric{
			"cycles/s": {Value: 1e6, Unit: "cycles/s", Better: BetterHigher, HostDependent: true},
		},
	})
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	m := back.Find("B").Metrics["cycles/s"]
	if !m.HostDependent || m.Better != BetterHigher || m.Value != 1e6 {
		t.Errorf("metric lost in round trip: %+v", m)
	}
}

// BenchmarkSuite runs the suite's bodies under `go test -bench`, one
// sub-benchmark per report row.
func BenchmarkSuite(b *testing.B) {
	for _, d := range suite(false) {
		b.Run(d.name, d.body)
	}
}

// setBenchtime sets testing's -test.benchtime for the rest of the test.
func setBenchtime(t *testing.T, v string) {
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := f.Value.Set(v); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Value.Set(old) })
}

// TestRunSmoke executes one real (cheap) suite entry end to end through
// testing.Benchmark and checks the report shape.
func TestRunSmoke(t *testing.T) {
	setBenchtime(t, "20ms")
	r, err := Run(Options{
		Quick:  true,
		Reps:   1,
		Filter: regexp.MustCompile(`^Cachesim$`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	b := r.Find("Cachesim")
	if b == nil {
		t.Fatal("Cachesim missing from report")
	}
	if b.N <= 0 || b.NsPerOp <= 0 {
		t.Errorf("implausible measurement: N=%d ns/op=%f", b.N, b.NsPerOp)
	}
	if m, ok := b.Metrics["accesses/s"]; !ok || m.Value <= 0 || !m.HostDependent {
		t.Errorf("accesses/s metric malformed: %+v", m)
	}
	if r.Host == "" || r.GoVersion == "" {
		t.Error("environment fields not populated")
	}
	// Self-diff must be clean at any tolerance.
	res, err := Diff(r, r, 0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("self-diff regressed: %+v", res.Regressions())
	}
}

// TestRunFailingBody checks that a body that fails, on its first run or a
// later one, or that reports an undeclared metric, is an error naming the
// benchmark rather than a report row.
func TestRunFailingBody(t *testing.T) {
	setBenchtime(t, "3x")
	bodies := map[string]func(*testing.B){
		"FatalFirst": func(b *testing.B) { b.Fatal("boom") },
		"ErrorLater": func(b *testing.B) {
			if b.N > 1 {
				b.Error("boom")
			}
		},
		"Undeclared": func(b *testing.B) { b.ReportMetric(1, "widgets/op") },
	}
	for name, body := range bodies {
		ok := entry{"Fine", func(*testing.B) {}}
		r, err := run(Options{Reps: 1}, []entry{ok, {name, body}})
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: report %v, err %v; want an error naming the benchmark", name, r, err)
		}
	}
}
