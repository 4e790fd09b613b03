// Package bench is the continuous-benchmark harness behind `expdriver
// bench`: a fixed suite of simulator benchmarks (Table 1 machine throughput,
// the wakeup ablation, the headline experiment, a cache-hierarchy
// microbenchmark, and the steady-state allocation gate) measured with a
// self-contained timing loop and emitted as a schema'd JSON report
// (BENCH_<n>.json). Reports from two builds are compared with Diff, which
// knows each metric's improvement direction and which metrics are
// host-dependent, so CI can gate deterministic metrics tightly while
// tolerating shared-runner timing noise.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Schema identifies the report format; Diff refuses mismatched schemas.
const Schema = "clustersmt/bench/v1"

// PRNumber is the repository growth step that produced this harness; the
// driver convention names the checked-in report BENCH_<PRNumber>.json.
const PRNumber = 6

// Improvement direction of a metric. Deterministic simulator outputs
// (simulated cycles per run, headline speedup) use BetterEqual: a change in
// either direction means simulated behavior changed, which the benchmark
// gate should flag even though the equivalence tests are the primary line of
// defense.
const (
	BetterHigher = "higher"
	BetterLower  = "lower"
	BetterEqual  = "equal"
)

// Metric is one named measurement of a benchmark.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// Better is the improvement direction (BetterHigher/BetterLower/
	// BetterEqual); empty marks an informational metric Diff never gates.
	Better string `json:"better,omitempty"`
	// HostDependent marks wall-clock-derived metrics (ns/op, cycles/s)
	// that are not comparable across machines; Diff gates them with the
	// looser time tolerance, or skips them when it is zero.
	HostDependent bool `json:"host_dependent,omitempty"`
}

// Benchmark is one suite entry's result. NsPerOp/AllocsPerOp/BytesPerOp are
// always present for timed benchmarks; Metrics carries the per-benchmark
// custom measurements (cycles/s, simulated cycles per op, ...).
type Benchmark struct {
	Name string `json:"name"`
	// N is the iteration count of the recorded (best) repetition.
	N           int               `json:"n"`
	NsPerOp     float64           `json:"ns_per_op"`
	AllocsPerOp float64           `json:"allocs_per_op"`
	BytesPerOp  float64           `json:"bytes_per_op"`
	Metrics     map[string]Metric `json:"metrics,omitempty"`
}

// Report is the full output of one suite run.
type Report struct {
	Schema    string `json:"schema"`
	PR        int    `json:"pr"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	CPUModel  string `json:"cpu_model,omitempty"`
	// Host is a short fingerprint of hostname+CPU+arch. Diff notes a
	// mismatch so readers know wall-clock comparisons cross machines.
	Host string `json:"host_fingerprint"`
	// Quick marks the reduced suite (shorter targets, smaller headline
	// run); quick and full reports are not comparable and Diff rejects
	// the pair.
	Quick bool `json:"quick"`
	// Reps is the repetition count; each benchmark records its best rep.
	Reps       int         `json:"reps"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Validate checks the schema tag and basic shape.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, Schema)
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("bench: report has no benchmarks")
	}
	return nil
}

// Find returns the named benchmark, or nil.
func (r *Report) Find(name string) *Benchmark {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// LoadReport reads and validates a report JSON file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Options configures a suite run.
type Options struct {
	// Quick selects the reduced suite for CI smoke runs.
	Quick bool
	// Target is the per-repetition wall-clock target (0 = 3s, or 400ms
	// with Quick).
	Target time.Duration
	// Reps is the repetition count per benchmark; the best (fastest)
	// repetition is recorded, which is the standard defense against
	// one-off scheduler noise (0 = 3, or 1 with Quick).
	Reps int
	// Filter, when non-nil, restricts the suite to matching benchmark
	// names.
	Filter *regexp.Regexp
	// Logf, when non-nil, receives one progress line per benchmark.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Target == 0 {
		if o.Quick {
			o.Target = 400 * time.Millisecond
		} else {
			o.Target = 3 * time.Second
		}
	}
	if o.Reps == 0 {
		if o.Quick {
			o.Reps = 1
		} else {
			o.Reps = 3
		}
	}
}

// Run executes the suite and returns the report.
func Run(o Options) (*Report, error) {
	return RunCtx(context.Background(), o)
}

// RunCtx is Run with cancellation: the context is polled between
// benchmarks, so a canceled gate run stops after the benchmark in flight
// instead of grinding through the rest of the suite.
func RunCtx(ctx context.Context, o Options) (*Report, error) {
	o.fill()
	r := &Report{
		Schema:    Schema,
		PR:        PRNumber,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Quick:     o.Quick,
		Reps:      o.Reps,
	}
	r.Host = fingerprint(r)
	for _, d := range suite() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("bench: canceled: %w", err)
		}
		if o.Filter != nil && !o.Filter.MatchString(d.name) {
			continue
		}
		b, err := d.run(o)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", d.name, err)
		}
		if o.Logf != nil {
			o.Logf("%s", benchLine(b))
		}
		r.Benchmarks = append(r.Benchmarks, b)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("bench: filter matched no benchmarks")
	}
	return r, nil
}

// cpuModel returns the CPU model string on Linux (best effort elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// fingerprint hashes the host identity fields into a short tag so reports
// can be recognized as same-host comparable without recording the hostname
// in the clear.
func fingerprint(r *Report) string {
	host, _ := os.Hostname()
	sum := sha256.Sum256([]byte(strings.Join([]string{
		host, r.GOOS, r.GOARCH, fmt.Sprint(r.NumCPU), r.CPUModel,
	}, "|")))
	return hex.EncodeToString(sum[:6])
}

// measurement harness --------------------------------------------------------

// timedRun is one repetition's raw measurement.
type timedRun struct {
	n        int
	elapsed  time.Duration
	allocsOp float64
	bytesOp  float64
	counters map[string]float64
}

// runOnce measures n iterations of iter with the heap settled first, so the
// allocation columns reflect the benchmark body rather than leftover garbage.
func runOnce(n int, iter func(n int) map[string]float64) timedRun {
	runtime.GC()
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	t0 := time.Now()
	counters := iter(n)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m2)
	return timedRun{
		n:        n,
		elapsed:  elapsed,
		allocsOp: float64(m2.Mallocs-m1.Mallocs) / float64(n),
		bytesOp:  float64(m2.TotalAlloc-m1.TotalAlloc) / float64(n),
		counters: counters,
	}
}

// measure calibrates the iteration count to the wall-clock target (the same
// geometric ramp `go test -bench` uses), then repeats at that count and
// keeps the fastest repetition.
func measure(target time.Duration, reps int, iter func(n int) map[string]float64) timedRun {
	n := 1
	var best timedRun
	for {
		best = runOnce(n, iter)
		if best.elapsed >= target || n >= 1<<30 {
			break
		}
		el := best.elapsed
		if el < time.Microsecond {
			el = time.Microsecond
		}
		next := int(float64(n) * float64(target) / float64(el) * 1.2)
		if next > n*100 {
			next = n * 100
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
	for i := 1; i < reps; i++ {
		if r := runOnce(n, iter); r.elapsed < best.elapsed {
			best = r
		}
	}
	return best
}

// text rendering -------------------------------------------------------------

// benchLine renders one benchmark as a standard Go benchmark output line
// (`Benchmark<Name>-P  N  ns/op ...`), the format benchstat consumes.
func benchLine(b Benchmark) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Benchmark%s-%d\t%8d\t%12.0f ns/op", b.Name, runtime.GOMAXPROCS(0), b.N, b.NsPerOp)
	for _, name := range slices.Sorted(maps.Keys(b.Metrics)) {
		m := b.Metrics[name]
		fmt.Fprintf(&sb, "\t%12.4g %s", m.Value, name)
	}
	fmt.Fprintf(&sb, "\t%12.0f B/op\t%8.0f allocs/op", b.BytesPerOp, b.AllocsPerOp)
	return sb.String()
}

// FormatText renders the report in benchstat-friendly form: the same
// goos/goarch/cpu header and Benchmark lines `go test -bench` prints, so
// two saved reports can be compared with
// `benchstat old.txt new.txt` (or any line-oriented diff).
func (r *Report) FormatText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "goos: %s\ngoarch: %s\npkg: clustersmt/bench\n", r.GOOS, r.GOARCH)
	if r.CPUModel != "" {
		fmt.Fprintf(&sb, "cpu: %s\n", r.CPUModel)
	}
	for _, b := range r.Benchmarks {
		sb.WriteString(benchLine(b))
		sb.WriteByte('\n')
	}
	return sb.String()
}
