package bench

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Delta is one metric's comparison between two reports.
type Delta struct {
	Bench  string
	Metric string
	Old    float64
	New    float64
	// Rel is (new-old)/old; ±Inf when old is zero and new is not.
	Rel float64
	// Better is the metric's improvement direction ("" = informational).
	Better        string
	HostDependent bool
	// Tol is the tolerance this delta was gated with (0 when not gated).
	Tol float64
	// Gated reports whether the delta participated in pass/fail.
	Gated bool
	// Regression reports whether the delta fails its gate.
	Regression bool
}

// DiffResult is the full comparison outcome.
type DiffResult struct {
	Deltas []Delta
	// Notes are human-readable caveats (host mismatch, go version skew,
	// benchmarks present on only one side).
	Notes []string
}

// Regressions returns the failing deltas.
func (d *DiffResult) Regressions() []Delta {
	var out []Delta
	for _, x := range d.Deltas {
		if x.Regression {
			out = append(out, x)
		}
	}
	return out
}

// OK reports whether no gated metric regressed.
func (d *DiffResult) OK() bool { return len(d.Regressions()) == 0 }

// Diff compares two reports metric by metric. tol gates deterministic
// metrics; timeTol gates host-dependent (wall-clock-derived) ones, and
// timeTol <= 0 skips them entirely — the right setting when old and new come
// from different machines. Regressions are one-sided for directional metrics
// (improvements never fail) and two-sided for BetterEqual metrics. A
// benchmark present in old but missing from new is itself a regression (the
// suite shrank); extra benchmarks in new are noted but never fail.
func Diff(old, new *Report, tol, timeTol float64) (*DiffResult, error) {
	if err := old.Validate(); err != nil {
		return nil, err
	}
	if err := new.Validate(); err != nil {
		return nil, err
	}
	if old.Quick != new.Quick {
		return nil, fmt.Errorf("bench: quick-mode mismatch (old quick=%v, new quick=%v); reports from different modes are not comparable", old.Quick, new.Quick)
	}
	res := &DiffResult{}
	if old.Host != new.Host {
		if timeTol > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"host fingerprints differ (%s vs %s): wall-clock metrics compare across machines; gated only by the loose -time-tol %.0f%%",
				old.Host, new.Host, timeTol*100))
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"host fingerprints differ (%s vs %s): wall-clock metrics skipped", old.Host, new.Host))
		}
	}
	if old.GoVersion != new.GoVersion {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"go versions differ (%s vs %s): small allocs/op shifts may be runtime-internal", old.GoVersion, new.GoVersion))
	}
	for _, ob := range old.Benchmarks {
		nb := new.Find(ob.Name)
		if nb == nil {
			res.Deltas = append(res.Deltas, Delta{
				Bench: ob.Name, Metric: "(missing)", Gated: true, Regression: true,
			})
			continue
		}
		res.Deltas = append(res.Deltas, diffBench(&ob, nb, tol, timeTol)...)
	}
	for _, nb := range new.Benchmarks {
		if old.Find(nb.Name) == nil {
			res.Notes = append(res.Notes, fmt.Sprintf("benchmark %s is new (no baseline)", nb.Name))
		}
	}
	return res, nil
}

// builtinMetrics exposes the fixed per-benchmark columns as gateable
// metrics. ns/op is host-dependent; the allocation columns are
// deterministic (the simulator is single-goroutine and seeded) and are the
// tightly gated heart of the zero-alloc guarantee.
func builtinMetrics(b *Benchmark) map[string]Metric {
	m := map[string]Metric{
		"ns/op":     {Value: b.NsPerOp, Better: BetterLower, HostDependent: true},
		"allocs/op": {Value: b.AllocsPerOp, Better: BetterLower},
		"B/op":      {Value: b.BytesPerOp, Better: BetterLower},
	}
	for k, v := range b.Metrics {
		m[k] = v
	}
	return m
}

func diffBench(ob, nb *Benchmark, tol, timeTol float64) []Delta {
	om, nm := builtinMetrics(ob), builtinMetrics(nb)
	var out []Delta
	for _, name := range slices.Sorted(maps.Keys(om)) {
		o := om[name]
		n, ok := nm[name]
		if !ok {
			out = append(out, Delta{
				Bench: ob.Name, Metric: name, Old: o.Value,
				Better: o.Better, Gated: o.Better != "", Regression: o.Better != "",
			})
			continue
		}
		d := Delta{
			Bench: ob.Name, Metric: name, Old: o.Value, New: n.Value,
			Better: o.Better, HostDependent: o.HostDependent,
			Rel: relChange(o.Value, n.Value),
		}
		d.Tol = tol
		if o.HostDependent {
			d.Tol = timeTol
		}
		if o.Better != "" && d.Tol > 0 {
			d.Gated = true
			switch o.Better {
			case BetterHigher:
				d.Regression = d.Rel < -d.Tol
			case BetterLower:
				d.Regression = d.Rel > d.Tol
			case BetterEqual:
				d.Regression = math.Abs(d.Rel) > d.Tol
			}
		}
		out = append(out, d)
	}
	return out
}

// relChange returns (new-old)/old, with zero baselines mapped to ±Inf so a
// metric that was exactly 0 (steady-state allocations) fails any finite
// tolerance the moment it becomes nonzero.
func relChange(old, new float64) float64 {
	if old == 0 {
		switch {
		case new > 0:
			return math.Inf(1)
		case new < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return (new - old) / old
}
