package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"clustersmt/internal/core"
	"clustersmt/internal/metrics"
	"clustersmt/internal/policy"
	"clustersmt/internal/workload"
)

// specFingerprint is the struct whose encoding/json output content keys
// have always hashed. Runner.fingerprint assembles the same bytes from
// memoized encodings; this copy is the reference it must match.
type specFingerprint struct {
	Version      string            `json:"version"`
	Scheme       string            `json:"scheme"`
	SingleThread int               `json:"single_thread"`
	TraceLen     int               `json:"trace_len"`
	Workload     workload.Workload `json:"workload"`
	Config       json.RawMessage   `json:"config"`
}

// referenceKey is the content key json.Marshal(specFingerprint) yields
// for s on r, with its fingerprint bytes.
func referenceKey(t *testing.T, r *Runner, s Spec) (string, []byte) {
	t.Helper()
	cb, err := Machine(s, r.TraceLen).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(specFingerprint{
		Version:      core.SimVersion,
		Scheme:       canonicalScheme(s.Scheme),
		SingleThread: s.SingleThread,
		TraceLen:     r.TraceLen,
		Workload:     s.Workload,
		Config:       cb,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b
}

// TestCacheKeyFingerprintMatchesJSON: the fingerprint a runner assembles
// from memoized encodings is byte-identical to the reference encoding for
// every pool workload under every registry scheme, composed specs and an
// unparseable scheme string whose characters encoding/json escapes, on
// the Table 1 machine, the Table 4 machine and a non-default shape, SMT
// and single-thread. One runner per machine serves every spec, so all but
// the first spec of each workload, scheme and machine use recalled
// encodings.
func TestCacheKeyFingerprintMatchesJSON(t *testing.T) {
	schemes := append(policy.Names(),
		"sel=stall,iq=cssp,rf=cdprf:interval=8192", "rf=none,iq=cssp", "iq=cspsp:frac=0.25",
		"bogus<& \u2028 \xff>")
	alias := workload.Pool()[0]
	alias.Seeds = []uint64{alias.Seeds[0] + 1, alias.Seeds[1]}
	pool := append(workload.Pool(), alias) // reuses a pool name with other content
	machines := []struct {
		name string
		spec func(w workload.Workload, scheme string) Spec
	}{
		{"table1", func(w workload.Workload, sc string) Spec { return iqStudySpec(w, sc, 32) }},
		{"table4", table4Spec},
		{"shaped", func(w workload.Workload, sc string) Spec {
			s := table4Spec(w, sc)
			s.NumClusters, s.Links, s.LinkLatency, s.MemLatency = 4, 1, 2, 120
			return s
		}},
	}
	for _, m := range machines {
		r := NewRunner(20000)
		for _, w := range pool {
			for _, sc := range schemes {
				for _, single := range []int{-1, 0} {
					s := m.spec(w, sc)
					s.SingleThread = single
					want, wantBytes := referenceKey(t, r, s)
					if ck := r.CacheKey(s); ck != want {
						t.Fatalf("%s %s: CacheKey %s, want %s", m.name, s.key(), ck, want)
					}
					got, err := r.fingerprint(s, workloadDigest(s.Workload))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, wantBytes) {
						t.Fatalf("%s %s: fingerprint\n%s\nwant\n%s", m.name, s.key(), got, wantBytes)
					}
				}
			}
		}
	}
}

// countKeyWork counts debugKeyWork events while fn runs.
func countKeyWork(fn func()) map[string]int {
	var mu sync.Mutex
	n := map[string]int{}
	debugKeyWork = func(what string) {
		mu.Lock()
		n[what]++
		mu.Unlock()
	}
	defer func() { debugKeyWork = nil }()
	fn()
	return n
}

// TestCacheKeyWorkCounts pins the key derivation's work, a host-invariant
// count: one warm pass of Do over BenchmarkRunnerWarmHits's sweep (60
// workloads × 6 schemes, two goroutines) derives each spec's session key
// once, encodes each distinct workload once, each scheme once and the
// machine once, and a second pass on the same runner encodes nothing.
func TestCacheKeyWorkCounts(t *testing.T) {
	schemes := []string{"icount", "stall", "flush+", "cisp", "cssp", "cdprf"}
	var specs []Spec
	for _, w := range workload.Pool()[:60] {
		for _, scheme := range schemes {
			specs = append(specs, iqStudySpec(w, scheme, 32))
		}
	}
	warm := NewMemStore()
	keyer := NewRunner(2000)
	st := metrics.NewStats(2, 2)
	for _, s := range specs {
		if err := warm.Put(keyer.CacheKey(s), st); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRunner(2000)
	r.Store = warm
	var keys []string
	var executed int
	run := func() {
		var err error
		if keys, executed, err = doAll(r, specs, 2); err != nil {
			t.Fatal(err)
		}
	}
	got := countKeyWork(run)
	want := map[string]int{"spec": len(specs), "workload": 60, "scheme": len(schemes), "config": 1}
	for what, n := range want {
		if got[what] != n {
			t.Errorf("first pass: %d %s derivations, want %d", got[what], what, n)
		}
	}
	if executed != 0 {
		t.Fatalf("%d of %d warm items simulated", executed, len(specs))
	}
	for i, s := range specs {
		if keys[i] != keyer.CacheKey(s) {
			t.Fatalf("Do(specs[%d]) reported key %s, want %s", i, keys[i], keyer.CacheKey(s))
		}
	}
	again := countKeyWork(run)
	if len(again) != 1 || again["spec"] != len(specs) {
		t.Errorf("second pass on the same runner: %v, want only %d spec keys", again, len(specs))
	}
}
