package policy

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// namedCanonicals pins every named scheme's canonical string and full
// composition. The canonical strings feed content-addressed cache keys, so
// a change here invalidates every pre-redesign result store — the whole
// point of the canonical form is that this table never drifts.
var namedCanonicals = map[string]string{
	"icount":    "sel=icount,iq=unrestricted,rf=none",
	"stall":     "sel=stall,iq=unrestricted,rf=none",
	"flush+":    "sel=flush+,iq=unrestricted,rf=none",
	"cisp":      "sel=icount,iq=cisp,rf=none",
	"cssp":      "sel=icount,iq=cssp,rf=none",
	"cspsp":     "sel=icount,iq=cspsp,rf=none",
	"pc":        "sel=icount,iq=pc,rf=none",
	"cssprf":    "sel=icount,iq=cssp,rf=cssprf",
	"cisprf":    "sel=icount,iq=cssp,rf=cisprf",
	"cdprf":     "sel=icount,iq=cssp,rf=cdprf",
	"dcra":      "sel=icount,iq=dcra-iq,rf=dcra-rf",
	"hillclimb": "sel=icount,iq=hillclimb-iq,rf=none",
}

func TestNamedSchemeCanonicalGolden(t *testing.T) {
	if len(namedCanonicals) != 12 {
		t.Fatalf("golden table has %d schemes, want 12", len(namedCanonicals))
	}
	for name, spec := range namedCanonicals {
		sch, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		// The name itself is the canonical string (pre-redesign cache keys
		// hashed the bare name)...
		if got := sch.Spec.Canonical(); got != name {
			t.Errorf("%s: Canonical() = %q, want the name itself", name, got)
		}
		// ...and the full grammar form is pinned.
		if got := sch.Spec.Format(); got != spec {
			t.Errorf("%s: Format() = %q, want %q", name, got, spec)
		}
		// Parsing either spelling yields the same canonical identity.
		for _, in := range []string{name, spec} {
			sp, err := ParseSpec(in)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", in, err)
			}
			if got := sp.Canonical(); got != name {
				t.Errorf("ParseSpec(%q).Canonical() = %q, want %q", in, got, name)
			}
		}
	}
}

// randomSpec draws a valid spec: random components, each declared param
// included with probability 1/2 at either its default or a random in-range
// value (integral when required).
func randomSpec(rng *rand.Rand) SchemeSpec {
	pick := func(cs []Component) ComponentSpec {
		c := cs[rng.Intn(len(cs))]
		out := ComponentSpec{Name: c.Name}
		for _, p := range c.Params {
			if rng.Intn(2) == 0 {
				continue
			}
			v := p.Default
			if rng.Intn(2) == 0 {
				v = p.Min + rng.Float64()*(p.Max-p.Min)
				if p.Integer {
					v = float64(int64(v))
				}
			}
			out = out.WithParam(p.Name, v)
		}
		return out
	}
	return SchemeSpec{Sel: pick(Selectors()), IQ: pick(IQPolicies()), RF: pick(RFPolicies())}
}

// TestSpecRoundTripProperty: for any valid spec s, Parse(Format(s)) and
// Parse(Canonical(s)) both reproduce s's canonical identity, and Canonical
// is idempotent. This is the grammar's consistency contract.
func TestSpecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := randomSpec(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("randomSpec produced invalid %+v: %v", s, err)
		}
		canon := s.Canonical()
		for _, in := range []string{s.Format(), canon} {
			back, err := ParseSpec(in)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v (from %+v)", in, err, s)
			}
			if got := back.Canonical(); got != canon {
				t.Fatalf("ParseSpec(%q).Canonical() = %q, want %q", in, got, canon)
			}
		}
		// Instantiation must succeed for every valid spec.
		sel, iq, rf, err := s.New(2)
		if err != nil || sel == nil || iq == nil || rf == nil {
			t.Fatalf("New(%q): %v", s.Format(), err)
		}
	}
}

// FuzzParseSpec: no input crashes the parser, and every accepted input has
// a stable canonical form (parse → canonical → parse is a fixed point).
func FuzzParseSpec(f *testing.F) {
	for name := range namedCanonicals {
		f.Add(name)
		f.Add(namedCanonicals[name])
	}
	f.Add("sel=stall,iq=cspsp:frac=0.4,rf=cdprf:interval=32768")
	f.Add("iq=cssp")
	f.Add("rf=cdprf,iq=cssp,sel=flush+")
	f.Add("sel=icount:bogus=1")
	f.Add("sel=,iq=:,rf==")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		canon := s.Canonical()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q does not re-parse: %v", canon, in, err)
		}
		if got := back.Canonical(); got != canon {
			t.Fatalf("canonical not a fixed point: %q -> %q -> %q", in, canon, got)
		}
	})
}

func TestParseSpecDefaultsAndOrder(t *testing.T) {
	// Omitted clauses default to the Icount baseline; order is free.
	for in, want := range map[string]string{
		"iq=cssp":                         "cssp",
		"rf=cdprf,iq=cssp":                "cdprf",
		"sel=stall":                       "stall",
		"rf=cisprf,iq=cssp":               "cisprf",
		"iq=cspsp:frac=0.25":              "cspsp", // explicit default drops
		"rf=cdprf:interval=16384,iq=cssp": "cdprf",
		"iq=cspsp:frac=0.4":               "sel=icount,iq=cspsp:frac=0.4,rf=none",
		"sel=stall,iq=cssp,rf=cdprf":      "sel=stall,iq=cssp,rf=cdprf",
	} {
		got, err := CanonicalScheme(in)
		if err != nil {
			t.Fatalf("CanonicalScheme(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("CanonicalScheme(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"bogus",                      // unknown named scheme
		"sel=bogus",                  // unknown selector
		"iq=bogus",                   // unknown IQ policy
		"rf=bogus",                   // unknown RF policy
		"foo=icount",                 // unknown clause
		"sel=icount,sel=stall",       // duplicate clause
		"sel=icount:x=1",             // selector takes no params
		"iq=cspsp:bogus=1",           // unknown param
		"iq=cspsp:frac=0.9",          // out of range
		"iq=cspsp:frac=abc",          // unparseable value
		"iq=cspsp:frac=0.3:frac=0.3", // param set twice
		"iq=pc:offset=1.5",           // integer-constrained
		"rf=cdprf:interval=7",        // below min
		"sel=",                       // empty component
		"iq=cspsp:frac",              // param without value
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", in)
		}
	}
}

// TestSpecInstantiation: composed specs instantiate the same component
// types the named registry produces, and parameters land in the right
// fields.
func TestSpecInstantiation(t *testing.T) {
	sp, err := ParseSpec("sel=stall,iq=cspsp:frac=0.4,rf=cdprf:interval=32768")
	if err != nil {
		t.Fatal(err)
	}
	sel, iq, rf, err := sp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name() != "stall" {
		t.Errorf("selector = %s", sel.Name())
	}
	cspsp, ok := iq.(*CSPSP)
	if !ok || cspsp.GuaranteeFrac != 0.4 {
		t.Errorf("iq = %#v, want CSPSP{frac 0.4}", iq)
	}
	cdprf, ok := rf.(*CDPRF)
	if !ok || cdprf.cfg.Interval != 32768 {
		t.Errorf("rf = %#v, want CDPRF{interval 32768}", rf)
	}

	// PC offset rotates the binding.
	sp, err = ParseSpec("iq=pc:offset=1")
	if err != nil {
		t.Fatal(err)
	}
	_, iq, _, err = sp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	m := newFake(2, 2, 32, 64)
	if !iq.Allows(0, 1, m) || iq.Allows(0, 0, m) {
		t.Error("pc offset=1 should bind thread 0 to cluster 1")
	}
	if c, ok := iq.(PC).ForcedCluster(0); !ok || c%2 != 1 {
		t.Errorf("ForcedCluster(0) = %d", c)
	}

	// DCRA slow weight scales the share.
	sp, err = ParseSpec("iq=dcra-iq:slowweight=3,rf=dcra-rf:slowweight=3")
	if err != nil {
		t.Fatal(err)
	}
	_, iq, _, err = sp.New(2)
	if err != nil {
		t.Fatal(err)
	}
	d := iq.(*DCRAIQ)
	d.MissStart(0, 1, 0)
	// weight 3 vs 1: thread 0's share of 32 entries is 32*3/4 = 24.
	if got := d.st.share(0, 32, 2); got != 24 {
		t.Errorf("share = %d, want 24", got)
	}
}

// TestCDPRFIntervalDefault guards the coupling between the cdprf
// component's declared interval default and DefaultRFConfig: if they
// diverge, an explicit-default spec (param dropped by normalization) would
// instantiate differently from its canonical form.
func TestCDPRFIntervalDefault(t *testing.T) {
	c, ok := findRF("cdprf")
	if !ok {
		t.Fatal("cdprf not registered")
	}
	p := c.param("interval")
	if p == nil {
		t.Fatal("cdprf has no interval param")
	}
	for _, n := range []int{1, 2, 4} {
		if got := DefaultRFConfig(n).Interval; got != int64(p.Default) {
			t.Fatalf("DefaultRFConfig(%d).Interval = %d, declared default %v", n, got, p.Default)
		}
	}
}

// TestComponentRegistryDisjoint: component names must be unique across the
// three registries — campaign scheme_axes param keys ("component.param")
// rely on a name identifying its kind.
func TestComponentRegistryDisjoint(t *testing.T) {
	seen := map[string]string{}
	check := func(kind string, cs []Component) {
		for _, c := range cs {
			if prev, dup := seen[c.Name]; dup {
				t.Errorf("component %q registered as both %s and %s", c.Name, prev, kind)
			}
			seen[c.Name] = kind
			if c.Name == "" || c.Ref == "" || c.Desc == "" {
				t.Errorf("%s component %q missing name/ref/desc", kind, c.Name)
			}
			for _, p := range c.Params {
				if p.Name == "" || p.Desc == "" {
					t.Errorf("component %q has a param missing name/desc: %+v", c.Name, p)
				}
				if p.Min > p.Default || p.Default > p.Max {
					t.Errorf("component %q param %q: default %v outside [%v, %v]", c.Name, p.Name, p.Default, p.Min, p.Max)
				}
				if strings.ContainsAny(p.Name, ",:=") {
					t.Errorf("param name %q collides with grammar separators", p.Name)
				}
			}
			if strings.ContainsAny(c.Name, ",:=") {
				t.Errorf("component name %q collides with grammar separators", c.Name)
			}
		}
	}
	check("selector", Selectors())
	check("iq", IQPolicies())
	check("rf", RFPolicies())
}

// TestSchemeInfos: the machine-readable listing is complete and agrees
// with the registry (the CI README cross-check consumes it).
func TestSchemeInfos(t *testing.T) {
	infos := SchemeInfos()
	if len(infos) != len(Names()) {
		t.Fatalf("%d infos for %d schemes", len(infos), len(Names()))
	}
	for _, in := range infos {
		sch, err := Lookup(in.Name)
		if err != nil {
			t.Fatal(err)
		}
		if in.Spec != sch.Spec.Format() || in.Selector != sch.Spec.Sel.Name ||
			in.IQ != sch.Spec.IQ.Name || in.RF != sch.Spec.RF.Name {
			t.Errorf("info %+v disagrees with registry", in)
		}
	}
	set := Components()
	if len(set.Selectors) == 0 || len(set.IQ) == 0 || len(set.RF) == 0 || len(set.Schemes) != 12 {
		t.Errorf("Components() incomplete: %d/%d/%d/%d", len(set.Selectors), len(set.IQ), len(set.RF), len(set.Schemes))
	}
}

// TestBuilderDefaultsMatchDeclared: instantiating a component with no
// explicit parameters must equal instantiating it with every parameter
// explicitly set to its declared default. This pins the builders to the
// registry's Param.Default values — if a declared default changes without
// its builder (or vice versa), two specs with the same canonical cache
// key would simulate different machines.
func TestBuilderDefaultsMatchDeclared(t *testing.T) {
	explicitDefaults := func(c Component) map[string]float64 {
		if len(c.Params) == 0 {
			return nil
		}
		out := make(map[string]float64, len(c.Params))
		for _, p := range c.Params {
			out[p.Name] = p.Default
		}
		return out
	}
	for _, e := range selectorRegistry {
		a := e.build(2, nil)
		b := e.build(2, explicitDefaults(e.Component))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("selector %s: default-omitted %#v != default-explicit %#v", e.Name, a, b)
		}
	}
	for _, e := range iqRegistry {
		a := e.build(nil)
		b := e.build(explicitDefaults(e.Component))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("iq %s: default-omitted %#v != default-explicit %#v", e.Name, a, b)
		}
	}
	for _, e := range rfRegistry {
		a := e.build(DefaultRFConfig(2), nil)
		b := e.build(DefaultRFConfig(2), explicitDefaults(e.Component))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("rf %s: default-omitted %#v != default-explicit %#v", e.Name, a, b)
		}
	}
}
