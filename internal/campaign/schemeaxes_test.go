package campaign_test

import (
	"context"
	"strings"
	"testing"

	"clustersmt/internal/campaign"
)

// expandSchemes returns the distinct scheme strings of m's expansion, in
// first-appearance order.
func expandSchemes(t *testing.T, m *campaign.Manifest) []string {
	t.Helper()
	items, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []string
	for _, it := range items {
		if it.Spec.SingleThread >= 0 {
			continue
		}
		if !seen[it.Spec.Scheme] {
			seen[it.Spec.Scheme] = true
			out = append(out, it.Spec.Scheme)
		}
	}
	return out
}

func TestSchemeAxesExpansion(t *testing.T) {
	m := &campaign.Manifest{
		Workloads: []string{"ispec00.mix.2.1"},
		TraceLens: []int{1000},
		SchemeAxes: &campaign.SchemeAxes{
			Selectors: []string{"icount", "stall"},
			IQ:        []string{"cssp", "cspsp"},
			RF:        []string{"none", "cdprf"},
			Params:    map[string][]float64{"cspsp.frac": {0.25, 0.4}},
		},
	}
	got := expandSchemes(t, m)
	// 2 selectors × (cssp ×1 + cspsp ×2 frac values) × 2 RF = 12, with the
	// all-default corners collapsing to named schemes.
	want := []string{
		"cssp",
		"cdprf",
		"cspsp",
		"sel=icount,iq=cspsp:frac=0.4,rf=none",
		"sel=icount,iq=cspsp,rf=cdprf",
		"sel=icount,iq=cspsp:frac=0.4,rf=cdprf",
		"sel=stall,iq=cssp,rf=none",
		"sel=stall,iq=cssp,rf=cdprf",
		"sel=stall,iq=cspsp,rf=none",
		"sel=stall,iq=cspsp:frac=0.4,rf=none",
		"sel=stall,iq=cspsp,rf=cdprf",
		"sel=stall,iq=cspsp:frac=0.4,rf=cdprf",
	}
	if len(got) != len(want) {
		t.Fatalf("expanded %d distinct schemes, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scheme[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestSchemeAxesReachBeyondRegistry: the acceptance criterion that
// scheme_axes expands to component combinations not in the named registry.
func TestSchemeAxesReachBeyondRegistry(t *testing.T) {
	m := &campaign.Manifest{
		Workloads:  []string{"ispec00.mix.2.1"},
		TraceLens:  []int{1000},
		SchemeAxes: &campaign.SchemeAxes{Selectors: []string{"stall"}, IQ: []string{"cssp"}, RF: []string{"cdprf"}},
	}
	got := expandSchemes(t, m)
	if len(got) != 1 || got[0] != "sel=stall,iq=cssp,rf=cdprf" {
		t.Fatalf("expansion = %v", got)
	}
}

func TestSchemeDuplicatesRejected(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"repeated name", `{"schemes":["cssp","icount","cssp"]}`, "duplicates"},
		{"respelled duplicate", `{"schemes":["cdprf","sel=icount,iq=cssp,rf=cdprf"]}`, "duplicates"},
		{"axes overlap schemes", `{"schemes":["cssp"],"scheme_axes":{"iq":["cssp"]}}`, "duplicates"},
		{"axis component listed twice", `{"scheme_axes":{"iq":["cssp","cssp"]}}`, "twice"},
		{"param value listed twice", `{"scheme_axes":{"iq":["cspsp"],"params":{"cspsp.frac":[0.3,0.3]}}}`, "twice"},
		{"empty axis", `{"scheme_axes":{"iq":[]}}`, "empty"},
		{"empty param list", `{"scheme_axes":{"iq":["cspsp"],"params":{"cspsp.frac":[]}}}`, "empty"},
		{"param for unswept component", `{"scheme_axes":{"iq":["cssp"],"params":{"cspsp.frac":[0.3]}}}`, "not in the iq axis"},
		{"param unknown component", `{"scheme_axes":{"iq":["cssp"],"params":{"nosuch.frac":[0.3]}}}`, "unknown component"},
		{"malformed param key", `{"scheme_axes":{"iq":["cspsp"],"params":{"cspspfrac":[0.3]}}}`, "component.param"},
		{"param out of range", `{"scheme_axes":{"iq":["cspsp"],"params":{"cspsp.frac":[0.9]}}}`, "out of range"},
		{"unknown axis component", `{"scheme_axes":{"iq":["nosuch"]}}`, "unknown iq policy"},
		{"unknown selector", `{"scheme_axes":{"selectors":["nosuch"]}}`, "unknown selector"},
		{"composed scheme entry ok", `{"schemes":["sel=stall,iq=cssp,rf=cdprf","cdprf"]}`, ""},
		{"axes only ok", `{"scheme_axes":{"rf":["cssprf","cisprf"],"iq":["cssp"]}}`, ""},
		{"neither schemes nor axes", `{}`, "no schemes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := campaign.Parse([]byte(tc.json))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Parse: %v, want valid", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestComposedCampaignEndToEnd: a scheme_axes campaign runs through the
// engine, the composed items succeed, results echo the full composition,
// and an immediate re-run is answered entirely by the store.
func TestComposedCampaignEndToEnd(t *testing.T) {
	m := &campaign.Manifest{
		Name:      "composed",
		Workloads: []string{"ispec00.mix.2.1"},
		TraceLens: []int{1000},
		Schemes:   []string{"icount"},
		SchemeAxes: &campaign.SchemeAxes{
			Selectors: []string{"stall"},
			IQ:        []string{"cssp"},
			RF:        []string{"none", "cdprf"},
		},
	}
	eng := &campaign.Engine{Resume: true}
	rs, err := eng.RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Failed != 0 {
		t.Fatalf("failed items: %v", rs.Err())
	}
	if rs.Total != 3 || rs.Executed != 3 {
		t.Fatalf("total=%d executed=%d, want 3/3", rs.Total, rs.Executed)
	}
	bySpec := map[string]campaign.Result{}
	for _, r := range rs.Results {
		bySpec[r.Scheme] = r
		if r.IPC <= 0 {
			t.Errorf("%s: IPC %v", r.Label, r.IPC)
		}
	}
	want := map[string]string{
		"icount":                     "sel=icount,iq=unrestricted,rf=none",
		"sel=stall,iq=cssp,rf=none":  "sel=stall,iq=cssp,rf=none",
		"sel=stall,iq=cssp,rf=cdprf": "sel=stall,iq=cssp,rf=cdprf",
	}
	for scheme, echo := range want {
		r, ok := bySpec[scheme]
		if !ok {
			t.Fatalf("no result for %q (have %v)", scheme, rs.Results)
		}
		if r.SchemeSpec != echo {
			t.Errorf("%s: scheme_spec echo %q, want %q", scheme, r.SchemeSpec, echo)
		}
		if !strings.Contains(r.Label, scheme) {
			t.Errorf("label %q does not echo the canonical scheme", r.Label)
		}
	}

	again, err := eng.RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.StoreHits != 3 {
		t.Fatalf("re-run executed=%d storeHits=%d, want 0/3", again.Executed, again.StoreHits)
	}
}
