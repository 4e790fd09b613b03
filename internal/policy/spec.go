package policy

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file is the composable scheme-spec API: per-component registries
// (selectors, IQ policies, RF policies — each with a paper reference and
// typed parameters), a grammar for composing them, and the canonical form
// that named paper schemes normalize to.
//
// The grammar composes one component of each kind, with optional
// parameters:
//
//	sel=icount,iq=cssp,rf=cdprf          // == the named scheme "cdprf"
//	sel=stall,iq=cspsp:frac=0.4,rf=none  // a combination Table 3/4 never ran
//
// Clauses may appear in any order and may be omitted (sel defaults to
// icount, iq to unrestricted, rf to none — the Icount baseline). A bare
// name with no '=' is a named-scheme lookup. Canonical() renders the
// normalized form: clauses in sel,iq,rf order, parameters sorted with
// default-valued ones dropped — and when the normalized triple is exactly
// a named paper scheme, the name itself. Content-addressed result keys
// hash the canonical form, so `sel=icount,iq=cssp,rf=cdprf` recalls the
// same stored results as `cdprf` (and pre-redesign stores stay valid: the
// 12 named schemes canonicalize to the exact strings they hashed before
// this API existed).

// Param is one typed, sweepable parameter of a component. Values are
// float64 in the spec grammar; Integer-constrained params additionally
// reject fractional values.
type Param struct {
	// Name is the grammar key (e.g. "frac" in "iq=cspsp:frac=0.4").
	Name string `json:"name"`
	// Desc is a one-line description for listings.
	Desc string `json:"desc"`
	// Default is the value the component uses when the param is omitted;
	// a param set to its default is dropped from the canonical form.
	Default float64 `json:"default"`
	// Min and Max bound accepted values (inclusive).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Integer requires an integral value.
	Integer bool `json:"integer,omitempty"`
}

// Component is the registry metadata of one selector / IQ policy /
// RF policy: the name the grammar uses, the paper reference, and the
// typed parameters it accepts.
type Component struct {
	Name   string  `json:"name"`
	Ref    string  `json:"ref"`
	Desc   string  `json:"desc"`
	Params []Param `json:"params,omitempty"`
}

// param returns the declared parameter named name, or nil.
func (c Component) param(name string) *Param {
	for i := range c.Params {
		if c.Params[i].Name == name {
			return &c.Params[i]
		}
	}
	return nil
}

// paramNames lists the component's parameter names (for error messages).
func (c Component) paramNames() []string {
	out := make([]string, len(c.Params))
	for i, p := range c.Params {
		out[i] = p.Name
	}
	return out
}

// pv reads parameter name from p, falling back to def when unset. Builders
// use it so a normalized (default-dropped) and an explicit-default spec
// instantiate identically.
func pv(p map[string]float64, name string, def float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

// selectorEntry, iqEntry and rfEntry pair a component's metadata with its
// parameterized constructor.
type selectorEntry struct {
	Component
	build func(n int, p map[string]float64) Selector
}

type iqEntry struct {
	Component
	build func(p map[string]float64) IQPolicy
}

type rfEntry struct {
	Component
	build func(cfg RFConfig, p map[string]float64) RFPolicy
}

// The three component registries, in listing order. Every component the
// simulator implements is registered here; the named schemes in scheme.go
// are compositions of these and nothing else.
var selectorRegistry = []selectorEntry{
	{Component{Name: "icount", Ref: "§5 ref [1]",
		Desc: "every thread with work is eligible; Icount ordering picks among them"},
		func(n int, _ map[string]float64) Selector { return NewIcount(n) }},
	{Component{Name: "stall", Ref: "§5.1 ref [19]",
		Desc: "a thread with a pending L2 miss cannot rename until it resolves"},
		func(n int, _ map[string]float64) Selector { return NewStall(n) }},
	{Component{Name: "flush+", Ref: "§5.1 ref [25]",
		Desc: "an L2-missing thread is flushed past the miss and stalled; the earliest of two missers continues"},
		func(n int, _ map[string]float64) Selector { return NewFlushPlus(n) }},
}

var iqRegistry = []iqEntry{
	{Component{Name: "unrestricted", Ref: "§5.1",
		Desc: "no per-thread issue-queue cap"},
		func(_ map[string]float64) IQPolicy { return NewUnrestricted() }},
	{Component{Name: "cisp", Ref: "§5.1 ref [31]",
		Desc: "cap a thread's total issue-queue share, cluster-insensitive"},
		func(_ map[string]float64) IQPolicy { return NewCISP() }},
	{Component{Name: "cssp", Ref: "§5.1",
		Desc: "cap a thread's issue-queue share per cluster"},
		func(_ map[string]float64) IQPolicy { return NewCSSP() }},
	{Component{Name: "cspsp", Ref: "§5.1",
		Desc: "guarantee a fraction of each cluster's entries per thread; the rest is shared",
		Params: []Param{{Name: "frac", Desc: "guaranteed per-thread fraction of each cluster's issue-queue entries",
			Default: 0.25, Min: 0.01, Max: 0.5}}},
		func(p map[string]float64) IQPolicy { return &CSPSP{GuaranteeFrac: pv(p, "frac", 0.25)} }},
	{Component{Name: "pc", Ref: "§5.1",
		Desc: "private clusters: each thread statically owns one cluster",
		Params: []Param{{Name: "offset", Desc: "rotation added to the thread index before the modulo cluster binding",
			Default: 0, Min: 0, Max: 16, Integer: true}}},
		func(p map[string]float64) IQPolicy { return PC{Offset: int(pv(p, "offset", 0))} }},
	{Component{Name: "dcra-iq", Ref: "§6 ext. [30]",
		Desc: "DCRA share of each cluster's entries, weighted toward L2-missing threads",
		Params: []Param{{Name: "slowweight", Desc: "share weight of a thread holding an outstanding L2 miss",
			Default: 2, Min: 1, Max: 8, Integer: true}}},
		func(p map[string]float64) IQPolicy {
			return &DCRAIQ{st: &dcraState{slowWeight: int(pv(p, "slowweight", 2))}}
		}},
	{Component{Name: "hillclimb-iq", Ref: "§6 ext. [32]",
		Desc: "hill-climb thread 0's per-cluster issue-queue share along the IPC gradient",
		Params: []Param{
			{Name: "epoch", Desc: "adaptation period in cycles", Default: 16384, Min: 1024, Max: 1 << 20, Integer: true},
			{Name: "delta", Desc: "share perturbation per epoch", Default: 0.0625, Min: 0.001, Max: 0.25},
		}},
		func(p map[string]float64) IQPolicy {
			// Route through the constructor so the non-parameter init
			// (initial share, climb direction) lives in exactly one place.
			h := NewHillClimbIQ().(*HillClimbIQ)
			h.Epoch = int64(pv(p, "epoch", 16384))
			h.Delta = pv(p, "delta", 0.0625)
			return h
		}},
}

var rfRegistry = []rfEntry{
	{Component{Name: "none", Ref: "§5.2",
		Desc: "no per-thread register cap"},
		func(RFConfig, map[string]float64) RFPolicy { return NoRF{} }},
	{Component{Name: "cssprf", Ref: "§5.2",
		Desc: "cap a thread's register share per cluster"},
		func(RFConfig, map[string]float64) RFPolicy { return CSSPRF{} }},
	{Component{Name: "cisprf", Ref: "§5.2",
		Desc: "cap a thread's total register share, cluster-insensitive"},
		func(RFConfig, map[string]float64) RFPolicy { return CISPRF{} }},
	{Component{Name: "cdprf", Ref: "§5.2 Figs. 7–8",
		Desc: "dynamic per-thread register guarantees from occupancy and starvation history",
		// The default must equal DefaultRFConfig's Interval: a spec that
		// sets interval to its default drops the param in canonical form
		// and must then instantiate identically (TestCDPRFIntervalDefault).
		Params: []Param{{Name: "interval", Desc: "re-threshold period in cycles",
			Default: 16384, Min: 1024, Max: 1 << 20, Integer: true}}},
		func(cfg RFConfig, p map[string]float64) RFPolicy {
			if v, ok := p["interval"]; ok {
				cfg.Interval = int64(v)
			}
			return NewCDPRF(cfg)
		}},
	{Component{Name: "dcra-rf", Ref: "§6 ext. [30]",
		Desc: "DCRA share of the total registers of each kind, weighted toward L2-missing threads",
		Params: []Param{{Name: "slowweight", Desc: "share weight of a thread holding an outstanding L2 miss",
			Default: 2, Min: 1, Max: 8, Integer: true}}},
		func(_ RFConfig, p map[string]float64) RFPolicy {
			return &DCRARF{st: &dcraState{slowWeight: int(pv(p, "slowweight", 2))}}
		}},
}

// Selectors returns the selector component registry in listing order.
func Selectors() []Component {
	return components(selectorRegistry, func(e selectorEntry) Component { return e.Component })
}

// IQPolicies returns the IQ-policy component registry in listing order.
func IQPolicies() []Component {
	return components(iqRegistry, func(e iqEntry) Component { return e.Component })
}

// RFPolicies returns the RF-policy component registry in listing order.
func RFPolicies() []Component {
	return components(rfRegistry, func(e rfEntry) Component { return e.Component })
}

func components[E any](reg []E, get func(E) Component) []Component {
	out := make([]Component, len(reg))
	for i, e := range reg {
		out[i] = get(e)
	}
	return out
}

func findSelector(name string) (selectorEntry, bool) {
	for _, e := range selectorRegistry {
		if e.Name == name {
			return e, true
		}
	}
	return selectorEntry{}, false
}

func findIQ(name string) (iqEntry, bool) {
	for _, e := range iqRegistry {
		if e.Name == name {
			return e, true
		}
	}
	return iqEntry{}, false
}

func findRF(name string) (rfEntry, bool) {
	for _, e := range rfRegistry {
		if e.Name == name {
			return e, true
		}
	}
	return rfEntry{}, false
}

func componentNames(cs []Component) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

// ComponentSpec names one component with its explicitly set parameter
// values. A nil Params map means "all defaults".
type ComponentSpec struct {
	Name   string
	Params map[string]float64
}

// WithParam returns a copy of cs with name set to v (copy-on-write; the
// receiver's map is never mutated). Campaign expansion uses it to graft
// swept parameter values onto a base composition.
func (cs ComponentSpec) WithParam(name string, v float64) ComponentSpec {
	m := make(map[string]float64, len(cs.Params)+1)
	for k, val := range cs.Params {
		m[k] = val
	}
	m[name] = v
	cs.Params = m
	return cs
}

// SchemeSpec composes one selector, one IQ policy and one RF policy into a
// runnable resource-assignment scheme. The zero value is invalid; build
// specs with ParseSpec or from the named registry (Lookup(name).Spec).
type SchemeSpec struct {
	Sel ComponentSpec
	IQ  ComponentSpec
	RF  ComponentSpec
}

// Validate checks every component against its registry: the component must
// exist, every parameter must be declared, in range and integral where
// required.
func (s SchemeSpec) Validate() error {
	sel, ok := findSelector(s.Sel.Name)
	if !ok {
		return fmt.Errorf("policy: unknown selector %q (known: %v)", s.Sel.Name, componentNames(Selectors()))
	}
	if err := validateParams("selector", sel.Component, s.Sel.Params); err != nil {
		return err
	}
	iq, ok := findIQ(s.IQ.Name)
	if !ok {
		return fmt.Errorf("policy: unknown iq policy %q (known: %v)", s.IQ.Name, componentNames(IQPolicies()))
	}
	if err := validateParams("iq policy", iq.Component, s.IQ.Params); err != nil {
		return err
	}
	rf, ok := findRF(s.RF.Name)
	if !ok {
		return fmt.Errorf("policy: unknown rf policy %q (known: %v)", s.RF.Name, componentNames(RFPolicies()))
	}
	return validateParams("rf policy", rf.Component, s.RF.Params)
}

// validateParams reports the first bad parameter in name order, so a spec
// with several bad parameters always fails with the same message.
func validateParams(kind string, c Component, params map[string]float64) error {
	for _, name := range slices.Sorted(maps.Keys(params)) {
		v := params[name]
		p := c.param(name)
		if p == nil {
			if len(c.Params) == 0 {
				return fmt.Errorf("policy: %s %s takes no parameters (got %s=%s)", kind, c.Name, name, formatValue(v))
			}
			return fmt.Errorf("policy: %s %s has no parameter %q (known: %v)", kind, c.Name, name, c.paramNames())
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < p.Min || v > p.Max {
			return fmt.Errorf("policy: %s %s: %s=%s out of range [%s, %s]",
				kind, c.Name, name, formatValue(v), formatValue(p.Min), formatValue(p.Max))
		}
		if p.Integer && v != math.Trunc(v) {
			return fmt.Errorf("policy: %s %s: %s=%s must be an integer", kind, c.Name, name, formatValue(v))
		}
	}
	return nil
}

// New instantiates the spec's components for n threads (validating first).
func (s SchemeSpec) New(n int) (Selector, IQPolicy, RFPolicy, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, nil, err
	}
	sel, _ := findSelector(s.Sel.Name)
	iq, _ := findIQ(s.IQ.Name)
	rf, _ := findRF(s.RF.Name)
	return sel.build(n, materialize(sel.Component, s.Sel.Params)),
		iq.build(materialize(iq.Component, s.IQ.Params)),
		rf.build(DefaultRFConfig(n), materialize(rf.Component, s.RF.Params)), nil
}

// materialize overlays the explicitly set params on the component's
// declared defaults, so builders always see a complete map and the
// declared Param.Default is the single source of truth for omitted values
// (the builders' own fallbacks are never consulted through this path;
// TestBuilderDefaultsMatchDeclared guards the direct path too).
func materialize(c Component, params map[string]float64) map[string]float64 {
	if len(c.Params) == 0 {
		return params
	}
	out := make(map[string]float64, len(c.Params))
	for _, p := range c.Params {
		out[p.Name] = p.Default
	}
	for name, v := range params {
		out[name] = v
	}
	return out
}

// normalized drops parameters set to their declared default (so explicit
// defaults and omissions compare equal) and empties exhausted maps.
// Unknown components or parameters pass through untouched — Validate is
// where they are reported.
func (s SchemeSpec) normalized() SchemeSpec {
	if e, ok := findSelector(s.Sel.Name); ok {
		s.Sel = normalizeComponent(s.Sel, e.Component)
	}
	if e, ok := findIQ(s.IQ.Name); ok {
		s.IQ = normalizeComponent(s.IQ, e.Component)
	}
	if e, ok := findRF(s.RF.Name); ok {
		s.RF = normalizeComponent(s.RF, e.Component)
	}
	return s
}

func normalizeComponent(cs ComponentSpec, c Component) ComponentSpec {
	var kept map[string]float64
	for name, v := range cs.Params {
		if p := c.param(name); p != nil && p.Default == v {
			continue
		}
		if kept == nil {
			kept = make(map[string]float64, len(cs.Params))
		}
		kept[name] = v
	}
	cs.Params = kept
	return cs
}

// paramFree reports whether no component carries an explicit parameter.
func (s SchemeSpec) paramFree() bool {
	return len(s.Sel.Params) == 0 && len(s.IQ.Params) == 0 && len(s.RF.Params) == 0
}

// Format renders the spec in the grammar: the three clauses in sel,iq,rf
// order, parameters sorted by name. Explicitly set default-valued
// parameters are kept — use Canonical for the normalized form.
func (s SchemeSpec) Format() string {
	var b strings.Builder
	formatClause(&b, "sel", s.Sel)
	b.WriteByte(',')
	formatClause(&b, "iq", s.IQ)
	b.WriteByte(',')
	formatClause(&b, "rf", s.RF)
	return b.String()
}

func formatClause(b *strings.Builder, key string, cs ComponentSpec) {
	b.WriteString(key)
	b.WriteByte('=')
	b.WriteString(cs.Name)
	names := make([]string, 0, len(cs.Params))
	for name := range cs.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteByte(':')
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(formatValue(cs.Params[name]))
	}
}

// formatValue renders a parameter value so that ParseFloat round-trips it
// exactly.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Canonical returns the spec's canonical string: when the normalized spec
// is exactly a named paper scheme's composition, the name itself (so the
// 12 named schemes keep their pre-redesign content-addressed identity);
// otherwise the normalized grammar form. Equal canonical strings mean
// equal instantiated component behaviour.
func (s SchemeSpec) Canonical() string {
	n := s.normalized()
	if n.paramFree() {
		if name, ok := nameByTriple[n.tripleKey()]; ok {
			return name
		}
	}
	return n.Format()
}

// tripleKey identifies a param-free composition for the named-scheme
// reverse lookup.
func (s SchemeSpec) tripleKey() string {
	return s.Sel.Name + "|" + s.IQ.Name + "|" + s.RF.Name
}

// nameByTriple maps a named scheme's param-free composition back to its
// name; built from the registry in scheme.go.
var nameByTriple = func() map[string]string {
	out := make(map[string]string, len(registry))
	for name, sch := range registry {
		out[sch.Spec.tripleKey()] = name
	}
	return out
}()

// ParseSpec parses a scheme reference: either a bare named scheme ("cdprf")
// or the component grammar ("sel=icount,iq=cssp:frac=0.75,rf=cdprf").
// Omitted clauses default to the Icount baseline (sel=icount,
// iq=unrestricted, rf=none). The returned spec is validated.
func ParseSpec(spec string) (SchemeSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return SchemeSpec{}, fmt.Errorf("policy: empty scheme spec")
	}
	if !strings.Contains(spec, "=") {
		sch, err := Lookup(spec)
		if err != nil {
			return SchemeSpec{}, fmt.Errorf("%w; or compose one: sel=<selector>,iq=<iq policy>,rf=<rf policy>", err)
		}
		return sch.Spec, nil
	}
	s := SchemeSpec{
		Sel: ComponentSpec{Name: "icount"},
		IQ:  ComponentSpec{Name: "unrestricted"},
		RF:  ComponentSpec{Name: "none"},
	}
	seen := map[string]bool{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		key, rest, ok := strings.Cut(clause, "=")
		if !ok || rest == "" {
			return SchemeSpec{}, fmt.Errorf("policy: spec clause %q is not key=component", clause)
		}
		if key != "sel" && key != "iq" && key != "rf" {
			return SchemeSpec{}, fmt.Errorf("policy: unknown spec clause %q (sel, iq or rf)", key)
		}
		if seen[key] {
			return SchemeSpec{}, fmt.Errorf("policy: duplicate spec clause %q", key)
		}
		seen[key] = true
		cs, err := parseComponent(rest)
		if err != nil {
			return SchemeSpec{}, fmt.Errorf("policy: spec clause %s: %w", key, err)
		}
		switch key {
		case "sel":
			s.Sel = cs
		case "iq":
			s.IQ = cs
		case "rf":
			s.RF = cs
		}
	}
	if err := s.Validate(); err != nil {
		return SchemeSpec{}, err
	}
	return s, nil
}

// parseComponent parses "name[:param=value]...".
func parseComponent(s string) (ComponentSpec, error) {
	parts := strings.Split(s, ":")
	cs := ComponentSpec{Name: parts[0]}
	if cs.Name == "" {
		return ComponentSpec{}, fmt.Errorf("empty component name")
	}
	for _, pvs := range parts[1:] {
		name, val, ok := strings.Cut(pvs, "=")
		if !ok || name == "" {
			return ComponentSpec{}, fmt.Errorf("parameter %q is not name=value", pvs)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return ComponentSpec{}, fmt.Errorf("parameter %s: bad value %q", name, val)
		}
		if cs.Params == nil {
			cs.Params = make(map[string]float64)
		}
		if _, dup := cs.Params[name]; dup {
			return ComponentSpec{}, fmt.Errorf("parameter %s set twice", name)
		}
		cs.Params[name] = v
	}
	return cs, nil
}

// CanonicalScheme parses spec and returns its canonical string — the
// single normalization point for content-addressed cache keys, campaign
// expansion and result labels.
func CanonicalScheme(spec string) (string, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return "", err
	}
	return s.Canonical(), nil
}

// SchemeInfo is the machine-readable row of one named scheme for listings
// (`expdriver schemes -json`, GET /v1/components).
type SchemeInfo struct {
	Name string `json:"name"`
	Ref  string `json:"ref"`
	Desc string `json:"desc"`
	// Spec is the full grammar form of the composition.
	Spec string `json:"spec"`
	// Selector, IQ and RF are the component names.
	Selector string `json:"selector"`
	IQ       string `json:"iq"`
	RF       string `json:"rf"`
}

// SchemeInfos lists every named scheme with its composition, sorted by
// name.
func SchemeInfos() []SchemeInfo {
	out := make([]SchemeInfo, 0, len(registry))
	for _, name := range Names() {
		sch := registry[name]
		out = append(out, SchemeInfo{
			Name: sch.Name, Ref: sch.Ref, Desc: sch.Desc,
			Spec:     sch.Spec.Format(),
			Selector: sch.Spec.Sel.Name, IQ: sch.Spec.IQ.Name, RF: sch.Spec.RF.Name,
		})
	}
	return out
}

// ComponentSet is the machine-readable form of the three component
// registries plus the named schemes composed from them (`expdriver
// components -json`, GET /v1/components).
type ComponentSet struct {
	Selectors []Component  `json:"selectors"`
	IQ        []Component  `json:"iq_policies"`
	RF        []Component  `json:"rf_policies"`
	Schemes   []SchemeInfo `json:"schemes"`
}

// Components returns the full component listing.
func Components() ComponentSet {
	return ComponentSet{
		Selectors: Selectors(),
		IQ:        IQPolicies(),
		RF:        RFPolicies(),
		Schemes:   SchemeInfos(),
	}
}
