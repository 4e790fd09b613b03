package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"clustersmt/internal/campaign/store"
)

// equalMetrics are the per-layer counts that depend only on the seed and
// the workload sizes, never on the host or on timing.
var equalMetrics = []string{
	"executed_sims", "sim_cycles", "error_rate",
	"trace.uops", "core.cycles", "core.renamed", "core.squashed", "core.copies",
	"core.iq_stalls", "core.flushes",
	"cachesim.l1_accesses", "cachesim.l1_misses", "cachesim.l2_misses", "cachesim.coalesced",
	"experiments.hit_ratio", "store.gets", "store.puts", "store.errors", "service.sse_frames",
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(b []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(b)))
	return len(b), nil
}

// smallRun runs one workload at the smallest sizes, with the minimum
// three timed submissions.
func smallRun(t *testing.T, workload string, trace bool, edit func(*options)) *result {
	t.Helper()
	opts := &options{
		workload: workload,
		seed:     defaultSeed,
		trace:    trace,
		sizes:    smallSizes,
		workDir:  t.TempDir(),
		log:      logWriter{t},
	}
	if edit != nil {
		edit(opts)
	}
	res, err := run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEqualCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := smallRun(t, w.name, true, nil)
			b := smallRun(t, w.name, true, nil)
			if !a.Correct || !b.Correct {
				t.Fatalf("runs not correct: %v, %v", a.Correct, b.Correct)
			}
			for _, name := range equalMetrics {
				ma, oka := a.Metrics[name]
				mb, okb := b.Metrics[name]
				if !oka || !okb {
					t.Fatalf("metric %s missing", name)
				}
				if ma != mb {
					t.Errorf("%s: %v then %v", name, ma.Value, mb.Value)
				}
			}
		})
	}
}

func TestTracedRunReportsLayers(t *testing.T) {
	want := map[string]map[string]float64{ // metric -> exact value, small sizes
		"cold-sweep":    {"executed_sims": 12, "store.gets": 12, "store.puts": 12, "error_rate": 0},
		"warm-resubmit": {"executed_sims": 0, "store.gets": 24, "store.puts": 0, "core.run_ms": 0, "service.sse_frames": 49, "error_rate": 0},
		"fleet-mixed":   {"executed_sims": 4, "store.gets": 8, "store.puts": 12, "error_rate": 0},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smallRun(t, w.name, true, nil)
			if !res.Correct {
				t.Fatal("run not correct")
			}
			for name, v := range want[w.name] {
				if got := res.Metrics[name].Value; got != v {
					t.Errorf("%s = %v, want %v", name, got, v)
				}
			}
			if w.name == "fleet-mixed" && res.Metrics["fleet.lease_requests"].Value == 0 {
				t.Error("fleet-mixed made no lease requests")
			}
		})
	}
}

func TestNonDefaultSeedRunsClean(t *testing.T) {
	res := smallRun(t, "fleet-mixed", false, func(o *options) { o.seed = 7 })
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("seed 7: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, name := range []string{"setup_s", "latency_p50_ms", "latency_p90_ms", "items_per_s", "alloc_mb_per_item", "peak_rss_mb"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestWrongDigestFails(t *testing.T) {
	res := smallRun(t, "cold-sweep", false, func(o *options) {
		o.digests = map[string]string{"cold-sweep": strings.Repeat("0", 64)}
	})
	if res.Correct {
		t.Fatal("run with a wrong expected digest reported correct")
	}
	if res.Failed == 0 {
		t.Fatal("failed submission not counted")
	}
}

// firstEntry returns the path and key of the store's first entry.
func firstEntry(t *testing.T, st *store.Store) (string, string) {
	keys, err := st.Keys()
	if err != nil || len(keys) == 0 {
		t.Fatalf("store keys: %v (%d)", err, len(keys))
	}
	sort.Strings(keys)
	return filepath.Join(st.Dir(), keys[0][:2], keys[0]+".json"), keys[0]
}

func TestTamperedStoreFails(t *testing.T) {
	t.Run("corrupt bytes", func(t *testing.T) {
		// A checksum failure reads as a miss: the daemon re-simulates the
		// item, which warm-resubmit forbids.
		res := smallRun(t, "warm-resubmit", false, func(o *options) {
			o.afterSeed = func(st *store.Store) error {
				path, _ := firstEntry(t, st)
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				b[len(b)/2] ^= 1
				return os.WriteFile(path, b, 0o644)
			}
		})
		if res.Correct {
			t.Fatal("run over a corrupted store entry reported correct")
		}
	})
	t.Run("valid checksum, altered stats", func(t *testing.T) {
		// A re-encoded entry passes the store's own checks; only the
		// pinned digest of the rows catches it.
		digests := map[string]string{}
		pin := smallRun(t, "warm-resubmit", false, func(o *options) {
			o.log = digestCatcher{logWriter{t}, digests}
		})
		if !pin.Correct || digests["warm-resubmit"] == "" {
			t.Fatal("could not pin the untampered digest")
		}
		res := smallRun(t, "warm-resubmit", false, func(o *options) {
			o.digests = digests
			o.afterSeed = func(st *store.Store) error {
				path, key := firstEntry(t, st)
				s, ok, err := st.Get(key)
				if err != nil || !ok {
					t.Fatalf("get %s: %v", key, err)
				}
				s.Cycles++
				b, err := store.EncodeEntry(key, s)
				if err != nil {
					return err
				}
				return os.WriteFile(path, b, 0o644)
			}
		})
		if res.Correct {
			t.Fatal("run over an altered store entry reported correct")
		}
	})
}

// TestFailedHTTPCallsCount checks that the transport counts failed calls
// with the probe on and off, and does not count a remote-store miss.
func TestFailedHTTPCallsCount(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/store/") {
			http.NotFound(w, r)
			return
		}
		http.Error(w, "refused", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	p := newProbe()
	hc := &http.Client{Transport: &probedTransport{inner: tr, p: p}}
	for _, on := range []bool{false, true} {
		p.on.Store(on)
		for _, path := range []string{"/v1/store/miss", "/v1/workers/w1/complete"} {
			resp, err := hc.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if got := p.httpFailed.Load(); got != 2 {
		t.Fatalf("counted %d failed calls, want 2 (one refused completion per probe state)", got)
	}
}

// digestCatcher records the digest lines a run logs.
type digestCatcher struct {
	logWriter
	into map[string]string
}

func (w digestCatcher) Write(b []byte) (int, error) {
	line := string(b)
	if i := strings.Index(line, " digest "); i > 0 {
		w.into[strings.Fields(line)[0]] = strings.TrimSpace(line[i+len(" digest "):])
	}
	return w.logWriter.Write(b)
}
