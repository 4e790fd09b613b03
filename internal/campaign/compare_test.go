package campaign_test

import (
	"slices"
	"testing"

	"clustersmt/internal/campaign"
)

// TestCompareJSON pins the figure gate's comparator: the relative
// tolerance is inclusive at its edge, differences under the absolute floor
// (1e-9) never count, keys present in one document only and array length
// changes are mismatches, and numbersOnly ignores a non-numeric leaf
// change unless a number stands on either side.
func TestCompareJSON(t *testing.T) {
	cases := []struct {
		name        string
		a, b        string
		tol         float64
		numbersOnly bool
		want        []string
	}{
		{"identical", `{"x":[1,"a",null,true]}`, `{"x":[1,"a",null,true]}`, 0, false, nil},
		{"at the tolerance edge", `{"ipc":98}`, `{"ipc":100}`, 0.02, false, nil},
		{"past the tolerance edge", `{"ipc":97.9}`, `{"ipc":100}`, 0.02,
			false, []string{"$.ipc: 97.9 vs 100 (2.10% off, tolerance 2.00%)"}},
		{"under the absolute floor", `[0]`, `[1e-10]`, 0, false, nil},
		{"over the absolute floor", `[0]`, `[2e-9]`, 0, false, []string{"$[0]: 0 vs 2e-09 (100.00% off, tolerance 0.00%)"}},
		{"key only in the first", `{"a":1,"b":2}`, `{"a":1}`, 0, false, []string{"$.b: only in first document"}},
		{"key only in the second", `{"a":1}`, `{"a":1,"b":{}}`, 0, false, []string{"$.b: only in second document"}},
		{"array length", `{"r":[1,2]}`, `{"r":[1,2,3]}`, 0, false, []string{"$.r: array length 2 vs 3"}},
		{"object vs array", `{"r":{}}`, `{"r":[]}`, 0, false, []string{"$.r: object vs []interface {}"}},
		{"string change", `["cdprf"]`, `["cssp"]`, 0, false, []string{"$[0]: cdprf vs cssp"}},
		{"string change, numbers only", `["cdprf",null]`, `["cssp",true]`, 0, true, nil},
		{"string to number, numbers only", `["cdprf"]`, `[1]`, 0, true, []string{"$[0]: cdprf vs number 1"}},
		{"number to string, numbers only", `[1]`, `["cdprf"]`, 0, true, []string{"$[0]: number vs string"}},
	}
	for _, c := range cases {
		got, err := campaign.CompareJSON([]byte(c.a), []byte(c.b), c.tol, c.numbersOnly)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: mismatches %q, want %q", c.name, got, c.want)
		}
	}
	if _, err := campaign.CompareJSON([]byte(`{}`), []byte(`{`), 0, false); err == nil {
		t.Error("a malformed second document compared without error")
	}
}
