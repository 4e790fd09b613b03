package campaign_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"clustersmt/internal/campaign"
)

// FuzzParse drives the manifest parser, the trust boundary for
// POST /v1/campaigns bodies. No input may panic, and an accepted manifest
// must re-marshal to JSON that Parse accepts again and that expands to
// the same item labels.
func FuzzParse(f *testing.F) {
	examples, err := filepath.Glob("../../examples/campaign/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example manifests (%v)", err)
	}
	for _, p := range examples {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(`{"schemes":["icount"],"iq_size":[32]}`))
	f.Add([]byte(`{"schemes":["icount"],"categories":["nope"]}`))
	f.Add([]byte(`{"schemes":["cdprf","sel=stall,iq=cssp,rf=cdprf"],"workloads":["ispec00.mix.2.1"],"repetitions":2,"single_thread_baselines":true}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := campaign.Parse(b)
		if err != nil {
			return
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal accepted manifest: %v", err)
		}
		m2, err := campaign.Parse(again)
		if err != nil {
			t.Fatalf("re-marshaled manifest rejected: %v\n%s", err, again)
		}
		if expansionBound(m) > 20000 {
			return // valid, but too large to materialize here
		}
		want, err1 := labels(m)
		got, err2 := labels(m2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("expansion errors differ after round trip: %v vs %v", err1, err2)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round trip changed the expansion: %d labels, want %d\n%s", len(got), len(want), again)
		}
	})
}

func labels(m *campaign.Manifest) ([]string, error) {
	items, err := m.Expand()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.Label()
	}
	return out, nil
}

// expansionBound over-estimates the number of items m expands to: the
// product of every axis length, the pool, the scheme count and the
// per-thread baselines.
func expansionBound(m *campaign.Manifest) float64 {
	n := float64(max(1, m.Repetitions)) * float64(max(120, len(m.Workloads)))
	for _, a := range [][]int{m.IQSizes, m.RegsPerCluster, m.ROBPerThread, m.TraceLens,
		m.NumClusters, m.Links, m.LinkLatency, m.MemLatency} {
		n *= float64(max(1, len(a)))
	}
	schemes := float64(len(m.Schemes))
	if sa := m.SchemeAxes; sa != nil {
		k := float64(max(1, len(sa.Selectors)) * max(1, len(sa.IQ)) * max(1, len(sa.RF)))
		for _, v := range sa.Params {
			k *= float64(max(1, len(v)))
		}
		schemes += k
	}
	if m.SingleThreadBaselines {
		schemes += 8
	}
	return n * schemes
}
