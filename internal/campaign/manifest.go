// Package campaign turns declarative sweep manifests into validated
// simulation campaigns over experiments.Runner, with persistent
// content-addressed results (internal/campaign/store), resumable execution
// and cross-campaign diffing. A new scenario is a JSON file, not bespoke
// code; the paper's figures (internal/figures) run as campaigns too.
//
// The Engine is shareable and cancellable (RunCtx): runners persist across
// campaigns so concurrent submissions deduplicate in flight, which is what
// the service daemon (internal/campaign/service) builds on. See DESIGN.md
// §6 for how engine, store and service layer together.
package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
	"clustersmt/internal/policy"
	"clustersmt/internal/workload"
)

// Default axis values: one point per axis, matching the §5.1 issue-queue
// study machine (32-entry IQs, unbounded RF/ROB) at a campaign-friendly
// trace length.
const (
	defaultIQSize   = 32
	defaultTraceLen = 20000

	// Machine-shape axis defaults: the Table 1 machine (two clusters, two
	// 1-cycle links, 60-cycle memory). Expanded items always carry explicit
	// shape values; the defaults match core.DefaultConfig exactly, so a
	// manifest that omits every shape axis produces the same canonical
	// configs — and therefore the same content-addressed store keys — as a
	// pre-shape-axis campaign.
	defaultNumClusters = 2
	defaultLinks       = 2
	defaultLinkLatency = 1
	defaultMemLatency  = 60

	// maxMemLatencyAxis bounds the mem_latency axis well below the
	// simulator's event-wheel capacity (core.Config.Validate enforces the
	// exact bound; this catches typos at manifest-validation time).
	maxMemLatencyAxis = 50000

	// MaxItems caps a manifest's expansion. Validation counts the items
	// before anything is built, so a tiny body cannot make Expand allocate
	// without limit. It admits the paper's full-pool grids: every named
	// scheme × two IQ sizes × two register-file sizes with single-thread
	// baselines over the 120-workload pool is 6,720 items.
	MaxItems = 20000
)

// ErrTooManyItems marks a manifest refused for expanding above MaxItems.
var ErrTooManyItems = errors.New("manifest: too many items")

// Manifest declares a campaign: which workloads, which schemes, and the
// machine axes to sweep. The cross product of all axes, times repetitions,
// expands into the spec set (Expand).
//
// Axis semantics: a missing (null) axis takes the single-point default; a
// present-but-empty axis is a validation error (an empty cross product is
// never what anyone meant).
type Manifest struct {
	// Name identifies the campaign (defaults to the manifest filename).
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`

	// Categories restricts the workload pool to the named Table 2
	// categories (null = all 11). Ignored when Workloads is set.
	Categories []string `json:"categories,omitempty"`
	// Workloads names explicit pool workloads, overriding Categories.
	Workloads []string `json:"workloads,omitempty"`
	// MaxPerCategory caps workloads per category, type-balanced like the
	// figures' quick mode (0 = no cap).
	MaxPerCategory int `json:"max_per_category,omitempty"`

	// Schemes lists resource-assignment schemes to run: named paper
	// schemes ("cdprf") or composed component specs in the policy grammar
	// ("sel=stall,iq=cssp,rf=cdprf"). Entries are canonicalized before
	// expansion; two spellings of one composition are rejected as
	// duplicates rather than silently double-run. Required unless
	// SchemeAxes is set.
	Schemes []string `json:"schemes,omitempty"`

	// SchemeAxes sweeps scheme components as axes: the cross product of
	// selectors × IQ policies × RF policies × declared parameter values
	// expands into composed specs, appended after Schemes. Expansions that
	// canonicalize to an entry already produced (by Schemes or by another
	// axis point) are rejected at validation.
	SchemeAxes *SchemeAxes `json:"scheme_axes,omitempty"`

	// IQSizes sweeps the per-cluster issue-queue capacity (default [32]).
	IQSizes []int `json:"iq_sizes,omitempty"`
	// RegsPerCluster sweeps per-kind physical registers per cluster;
	// 0 = unbounded (default [0]).
	RegsPerCluster []int `json:"regs_per_cluster,omitempty"`
	// ROBPerThread sweeps the per-thread ROB section; 0 = unbounded
	// (default [0]).
	ROBPerThread []int `json:"rob_per_thread,omitempty"`
	// TraceLens sweeps the per-thread trace length in uops
	// (default [20000]).
	TraceLens []int `json:"trace_lens,omitempty"`

	// NumClusters sweeps the back-end cluster count over [1,4]
	// (default [2], the paper's machine).
	NumClusters []int `json:"num_clusters,omitempty"`
	// Links sweeps the inter-cluster link count — copy transfers per cycle
	// (default [2]).
	Links []int `json:"links,omitempty"`
	// LinkLatency sweeps the inter-cluster transfer latency in cycles
	// (default [1]).
	LinkLatency []int `json:"link_latency,omitempty"`
	// MemLatency sweeps the main-memory access latency in cycles
	// (default [60]). The simulator sizes its completion wheel from the
	// swept value; core.Config.Validate rejects latencies it cannot model.
	MemLatency []int `json:"mem_latency,omitempty"`

	// Repetitions re-runs every point with per-repetition seed offsets
	// (rep 0 is the canonical pool seeding; default 1).
	Repetitions int `json:"repetitions,omitempty"`

	// SingleThreadBaselines adds a stand-alone Icount run per workload
	// thread at every axis point, enabling the §4 fairness metric on the
	// campaign's SMT results.
	SingleThreadBaselines bool `json:"single_thread_baselines,omitempty"`
}

// Load reads and validates a manifest file. Unknown fields are errors —
// a typoed axis name must not silently collapse a sweep to its default.
func Load(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	m, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	if m.Name == "" {
		m.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return m, nil
}

// Parse decodes and validates a manifest from JSON bytes.
func Parse(b []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the manifest against the component and scheme
// registries, the workload pool, the axis rules (see Manifest) and the
// expansion cap (MaxItems).
func (m *Manifest) Validate() error {
	_, _, _, err := m.validate()
	return err
}

// validate is Validate returning the canonical scheme list and the
// workload pool, which Expand iterates, and the number of items they
// expand to.
func (m *Manifest) validate() ([]string, []workload.Workload, int, error) {
	schemes, err := m.schemeList()
	if err != nil {
		return nil, nil, 0, err
	}
	points, err := m.validateAxes()
	if err != nil {
		return nil, nil, 0, err
	}
	pool, err := m.selectedWorkloads()
	if err != nil {
		return nil, nil, 0, err
	}
	perPoint := 0 // items per axis point, summed over the pool
	for _, w := range pool {
		perPoint += len(schemes)
		if m.SingleThreadBaselines {
			perPoint += len(w.Threads)
		}
	}
	n := float64(perPoint) * float64(max(1, m.Repetitions)) * points
	if n > MaxItems {
		return nil, nil, 0, fmt.Errorf("%w: expands to %.0f, above the cap of %d", ErrTooManyItems, n, MaxItems)
	}
	return schemes, pool, int(n), nil
}

// validateAxes checks the axis rules and returns the number of points
// the axes span.
func (m *Manifest) validateAxes() (float64, error) {
	if err := workload.CheckCategories(m.Categories); err != nil {
		return 0, fmt.Errorf("manifest: %w", err)
	}
	for _, w := range m.Workloads {
		if _, err := workload.Find(w); err != nil {
			return 0, fmt.Errorf("manifest: %w", err)
		}
	}
	axes := []struct {
		name string
		vals []int
	}{
		{"iq_sizes", m.IQSizes},
		{"regs_per_cluster", m.RegsPerCluster},
		{"rob_per_thread", m.ROBPerThread},
		{"trace_lens", m.TraceLens},
		{"num_clusters", m.NumClusters},
		{"links", m.Links},
		{"link_latency", m.LinkLatency},
		{"mem_latency", m.MemLatency},
	}
	points := 1.0
	for _, a := range axes {
		points *= float64(max(1, len(a.vals)))
		if a.vals != nil && len(a.vals) == 0 {
			return 0, fmt.Errorf("manifest: axis %s is empty (omit it for the default, or list values)", a.name)
		}
		for _, v := range a.vals {
			if err := CheckAxisValue(a.name, v); err != nil {
				return 0, fmt.Errorf("manifest: %w", err)
			}
		}
	}
	if m.MaxPerCategory < 0 {
		return 0, fmt.Errorf("manifest: negative max_per_category")
	}
	if m.Repetitions < 0 {
		return 0, fmt.Errorf("manifest: negative repetitions")
	}
	return points, nil
}

// axisBounds are the admissible ranges of the integer axes; a zero max is
// unbounded.
var axisBounds = map[string]struct{ minVal, maxVal int }{
	"iq_sizes":         {4, 0},
	"regs_per_cluster": {0, 0},
	"rob_per_thread":   {0, 0},
	"trace_lens":       {1000, 0},
	"num_clusters":     {1, core.MaxClusters},
	"links":            {1, 64},
	"link_latency":     {1, 1024},
	"mem_latency":      {1, maxMemLatencyAxis},
}

// An AxisError is an axis value outside the axis's bounds. Front ends
// that set an axis from a flag use Axis to name the flag.
type AxisError struct {
	Axis string
	msg  string
}

func (e *AxisError) Error() string { return e.msg }

// CheckAxisValue reports whether v lies within the named integer axis's
// bounds (iq_sizes, regs_per_cluster, rob_per_thread, trace_lens,
// num_clusters, links, link_latency, mem_latency); a value outside them is
// an *AxisError. Manifest validation applies it to every listed value;
// command-line front ends apply it to the flags that set the same
// quantities.
func CheckAxisValue(axis string, v int) error {
	b, ok := axisBounds[axis]
	if !ok {
		return fmt.Errorf("unknown axis %q", axis)
	}
	if v < b.minVal {
		return &AxisError{axis, fmt.Sprintf("axis %s value %d below minimum %d", axis, v, b.minVal)}
	}
	if b.maxVal > 0 && v > b.maxVal {
		return &AxisError{axis, fmt.Sprintf("axis %s value %d above maximum %d", axis, v, b.maxVal)}
	}
	return nil
}

// SchemeAxes sweeps scheme components as campaign axes. The expansion is
// the cross product Selectors × IQ × RF × the value lists of every Params
// entry whose component is part of the combination — so a parameter axis
// multiplies only the combinations that actually instantiate its
// component. A missing (null) axis takes the Icount-baseline default;
// present-but-empty axes, duplicate entries and parameters targeting
// unswept components are validation errors.
type SchemeAxes struct {
	// Selectors sweeps the rename thread-selection policy
	// (default ["icount"]).
	Selectors []string `json:"selectors,omitempty"`
	// IQ sweeps the issue-queue occupancy policy
	// (default ["unrestricted"]).
	IQ []string `json:"iq,omitempty"`
	// RF sweeps the register-file occupancy policy (default ["none"]).
	RF []string `json:"rf,omitempty"`
	// Params sweeps component parameters: "component.param" maps to the
	// value list (e.g. "cspsp.frac": [0.25, 0.4]). The component must
	// appear in its axis above; values must satisfy the parameter's
	// declared bounds.
	Params map[string][]float64 `json:"params,omitempty"`
}

// axisComponents validates one component-axis list: a nil list takes the
// default, duplicates are rejected, and membership in the component
// registry is checked per-combination by SchemeSpec.Validate later.
func axisComponents(name string, vals []string, def string) ([]string, error) {
	if vals == nil {
		return []string{def}, nil
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("manifest: scheme_axes.%s is empty (omit it for the default, or list components)", name)
	}
	seen := map[string]bool{}
	for _, v := range vals {
		if seen[v] {
			return nil, fmt.Errorf("manifest: scheme_axes.%s lists %q twice", name, v)
		}
		seen[v] = true
	}
	return vals, nil
}

// paramAxis is one validated "component.param" sweep.
type paramAxis struct {
	comp, param string
	vals        []float64
}

// componentKind reports which registry holds comp: "selectors", "iq",
// "rf", or "" when unknown. Component names are disjoint across the three
// registries.
func componentKind(comp string) string {
	for _, c := range policy.Selectors() {
		if c.Name == comp {
			return "selectors"
		}
	}
	for _, c := range policy.IQPolicies() {
		if c.Name == comp {
			return "iq"
		}
	}
	for _, c := range policy.RFPolicies() {
		if c.Name == comp {
			return "rf"
		}
	}
	return ""
}

// expand returns the canonical spec strings of the full component × param
// cross product, in deterministic order (axes in listed order, param keys
// sorted).
func (a *SchemeAxes) expand() ([]string, error) {
	sels, err := axisComponents("selectors", a.Selectors, "icount")
	if err != nil {
		return nil, err
	}
	iqs, err := axisComponents("iq", a.IQ, "unrestricted")
	if err != nil {
		return nil, err
	}
	rfs, err := axisComponents("rf", a.RF, "none")
	if err != nil {
		return nil, err
	}

	keys := make([]string, 0, len(a.Params))
	for k := range a.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	byAxis := map[string][]string{"selectors": sels, "iq": iqs, "rf": rfs}
	var paxes []paramAxis
	for _, k := range keys {
		comp, param, ok := strings.Cut(k, ".")
		if !ok || comp == "" || param == "" {
			return nil, fmt.Errorf("manifest: scheme_axes.params key %q must be \"component.param\"", k)
		}
		vals := a.Params[k]
		if len(vals) == 0 {
			return nil, fmt.Errorf("manifest: scheme_axes.params.%s is empty (omit it for the default, or list values)", k)
		}
		seen := map[float64]bool{}
		for _, v := range vals {
			if seen[v] {
				return nil, fmt.Errorf("manifest: scheme_axes.params.%s lists %v twice", k, v)
			}
			seen[v] = true
		}
		kind := componentKind(comp)
		if kind == "" {
			return nil, fmt.Errorf("manifest: scheme_axes.params key %q: unknown component %q", k, comp)
		}
		if !slices.Contains(byAxis[kind], comp) {
			return nil, fmt.Errorf("manifest: scheme_axes.params key %q targets %s component %q, which is not in the %s axis — a parameter for an unswept component can never take effect",
				k, kind, comp, kind)
		}
		paxes = append(paxes, paramAxis{comp: comp, param: param, vals: vals})
	}

	var out []string
	for _, sel := range sels {
		for _, iq := range iqs {
			for _, rf := range rfs {
				base := policy.SchemeSpec{
					Sel: policy.ComponentSpec{Name: sel},
					IQ:  policy.ComponentSpec{Name: iq},
					RF:  policy.ComponentSpec{Name: rf},
				}
				applicable := make([]paramAxis, 0, len(paxes))
				for _, pa := range paxes {
					if pa.comp == sel || pa.comp == iq || pa.comp == rf {
						applicable = append(applicable, pa)
					}
				}
				specs, err := expandParams(base, applicable)
				if err != nil {
					return nil, err
				}
				out = append(out, specs...)
			}
		}
	}
	return out, nil
}

// expandParams crosses base with every value assignment of paxes and
// returns the canonical strings, validating each composed spec (this is
// where out-of-range parameter values and nonsensical combinations are
// rejected).
func expandParams(base policy.SchemeSpec, paxes []paramAxis) ([]string, error) {
	if len(paxes) == 0 {
		if err := base.Validate(); err != nil {
			return nil, fmt.Errorf("manifest: scheme_axes: %w", err)
		}
		return []string{base.Canonical()}, nil
	}
	pa, rest := paxes[0], paxes[1:]
	var out []string
	for _, v := range pa.vals {
		next := base
		switch pa.comp {
		case base.Sel.Name:
			next.Sel = base.Sel.WithParam(pa.param, v)
		case base.IQ.Name:
			next.IQ = base.IQ.WithParam(pa.param, v)
		case base.RF.Name:
			next.RF = base.RF.WithParam(pa.param, v)
		}
		specs, err := expandParams(next, rest)
		if err != nil {
			return nil, err
		}
		out = append(out, specs...)
	}
	return out, nil
}

// schemeList resolves Schemes plus the SchemeAxes expansion into the
// deduplicated canonical scheme list, in deterministic order (Schemes
// first, then the axes cross product). Two entries that canonicalize to
// the same composition — a repeated name, a composed spelling of a listed
// scheme, or an axis expansion overlapping either — are rejected so a
// sloppy manifest cannot silently double-run specs.
func (m *Manifest) schemeList() ([]string, error) {
	seen := map[string]string{}
	var out []string
	add := func(raw, canon, src string) error {
		if prev, dup := seen[canon]; dup {
			return fmt.Errorf("manifest: %s %q duplicates %q (both canonicalize to %q)", src, raw, prev, canon)
		}
		seen[canon] = raw
		out = append(out, canon)
		return nil
	}
	for _, s := range m.Schemes {
		canon, err := policy.CanonicalScheme(s)
		if err != nil {
			return nil, fmt.Errorf("manifest: schemes: %w", err)
		}
		if err := add(s, canon, "schemes entry"); err != nil {
			return nil, err
		}
	}
	if m.SchemeAxes != nil {
		specs, err := m.SchemeAxes.expand()
		if err != nil {
			return nil, err
		}
		for _, canon := range specs {
			if err := add(canon, canon, "scheme_axes expansion"); err != nil {
				return nil, err
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("manifest: no schemes (list schemes and/or scheme_axes; named schemes: %v)", policy.Names())
	}
	return out, nil
}

// Item is one expanded simulation of a campaign: a runner spec plus the
// campaign axes that are not part of experiments.Spec.
type Item struct {
	// Spec is the runner spec; for repetitions > 0 its workload is a
	// derived sibling (offset seeds, suffixed name).
	Spec experiments.Spec
	// Base is the pool workload name (without the repetition suffix).
	Base string
	// TraceLen is the per-thread trace length for this item.
	TraceLen int
	// Rep is the repetition index (0 = canonical seeding).
	Rep int
	// Campaign is the index of the item's manifest in its plan.
	Campaign int
}

// Label renders the item's identity as a stable, human-readable key. Diff
// matches results across campaigns by this label, so it must be a pure
// function of the item's coordinates. The machine-shape suffix
// (c = clusters, lk = links, ll = link latency, ml = memory latency) is
// appended only for non-Table-1 shapes, so Table 1 labels stay
// byte-identical to pre-shape-axis campaigns — result sets emitted before
// the shape axes existed still diff row-for-row against new ones (the same
// compatibility rule the content-addressed store keys follow).
func (it Item) Label() string {
	s := it.Spec
	var buf [160]byte
	b := append(buf[:0], it.Base...)
	b = append(b, '|')
	b = append(b, s.Scheme...)
	b = appendLabelField(b, "|iq", s.IQSize)
	b = appendLabelField(b, "|rf", s.RegsPerClust)
	b = appendLabelField(b, "|rob", s.ROBPerThread)
	b = appendLabelField(b, "|len", it.TraceLen)
	b = appendLabelField(b, "|r", it.Rep)
	b = appendLabelField(b, "|st", s.SingleThread)
	if s.NumClusters != defaultNumClusters || s.Links != defaultLinks ||
		s.LinkLatency != defaultLinkLatency || s.MemLatency != defaultMemLatency {
		b = appendLabelField(b, "|c", s.NumClusters)
		b = appendLabelField(b, "|lk", s.Links)
		b = appendLabelField(b, "|ll", s.LinkLatency)
		b = appendLabelField(b, "|ml", s.MemLatency)
	}
	return string(b)
}

// appendLabelField appends name and v in decimal, as fmt's %s%d would.
func appendLabelField(b []byte, name string, v int) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

// repSeedStride separates repetition seed spaces (golden-ratio stride, the
// same family the pool's own seeding uses).
const repSeedStride = 0x9e3779b97f4a7c15

// repWorkload derives the rep-th sibling of w: same profiles, offset seeds,
// suffixed name. The seed offset is what keeps siblings distinct — trace
// memoization and the runner's session maps key on seed/profile content,
// not names — while the suffixed name keeps labels and result records
// readable. A rename alone would NOT reseed anything.
func repWorkload(w workload.Workload, rep int) workload.Workload {
	if rep == 0 {
		return w
	}
	d := w
	d.Name = fmt.Sprintf("%s+r%d", w.Name, rep)
	d.Seeds = make([]uint64, len(w.Seeds))
	for i, s := range w.Seeds {
		d.Seeds[i] = s + uint64(rep)*repSeedStride
	}
	return d
}

// selectedWorkloads resolves the manifest's workload pool in deterministic
// order.
func (m *Manifest) selectedWorkloads() ([]workload.Workload, error) {
	if len(m.Workloads) > 0 {
		out := make([]workload.Workload, 0, len(m.Workloads))
		for _, name := range m.Workloads {
			w, err := workload.Find(name)
			if err != nil {
				return nil, err
			}
			out = append(out, w)
		}
		return out, nil
	}
	o := experiments.Options{Categories: m.Categories, MaxPerCategory: m.MaxPerCategory}
	return o.Selected(), nil
}

// axis returns vals, or the default point when the axis was omitted.
func axis(vals []int, def int) []int {
	if vals == nil {
		return []int{def}
	}
	return vals
}

// Expand validates the manifest and returns the full deterministic item
// list: the cross product of workloads × repetitions × trace lengths ×
// IQ sizes × register files × ROB depths × machine shapes (cluster count ×
// links × link latency × memory latency) × schemes (the canonicalized
// Schemes list plus the SchemeAxes component cross product), plus the
// per-thread Icount baselines at every axis point when
// SingleThreadBaselines is set. Dry runs print exactly this list; real
// runs execute exactly this list.
func (m *Manifest) Expand() ([]Item, error) {
	schemes, pool, n, err := m.validate()
	if err != nil {
		return nil, err
	}
	reps := m.Repetitions
	if reps < 1 {
		reps = 1
	}
	type shape struct{ nc, lk, ll, ml int }
	var shapes []shape
	for _, nc := range axis(m.NumClusters, defaultNumClusters) {
		for _, lk := range axis(m.Links, defaultLinks) {
			for _, ll := range axis(m.LinkLatency, defaultLinkLatency) {
				for _, ml := range axis(m.MemLatency, defaultMemLatency) {
					shapes = append(shapes, shape{nc, lk, ll, ml})
				}
			}
		}
	}
	items := make([]Item, 0, n)
	for _, tl := range axis(m.TraceLens, defaultTraceLen) {
		for _, base := range pool {
			for rep := 0; rep < reps; rep++ {
				w := repWorkload(base, rep)
				for _, iq := range axis(m.IQSizes, defaultIQSize) {
					for _, rf := range axis(m.RegsPerCluster, 0) {
						for _, rob := range axis(m.ROBPerThread, 0) {
							for _, sh := range shapes {
								point := func(scheme string, single int) Item {
									return Item{
										Spec: experiments.Spec{
											Workload:     w,
											Scheme:       scheme,
											IQSize:       iq,
											RegsPerClust: rf,
											ROBPerThread: rob,
											SingleThread: single,
											NumClusters:  sh.nc,
											Links:        sh.lk,
											LinkLatency:  sh.ll,
											MemLatency:   sh.ml,
										},
										Base:     base.Name,
										TraceLen: tl,
										Rep:      rep,
									}
								}
								if m.SingleThreadBaselines {
									for t := range w.Threads {
										items = append(items, point("icount", t))
									}
								}
								for _, s := range schemes {
									items = append(items, point(s, -1))
								}
							}
						}
					}
				}
			}
		}
	}
	return items, nil
}
