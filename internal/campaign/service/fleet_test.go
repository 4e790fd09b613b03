package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// startFleetWorkers joins n in-process workers to the coordinator behind
// srv (the service handler mounts the fleet routes) and tears them down
// with the test. A nil client selects http.DefaultClient.
func startFleetWorkers(t *testing.T, srv *httptest.Server, n int, client *http.Client) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("w%d", i),
			Parallel:    2,
			Client:      client,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.Run(ctx)
		}()
		t.Cleanup(func() { cancel(); <-done })
	}
}

// TestFleetServiceMatchesLocal is the acceptance drill for coordinator
// mode: the iqsweep example campaign submitted to a fleet-mode daemon with
// three workers must produce exactly the result set a single-process
// daemon produces, the executed-simulation metric must count each item
// once despite the distributed retry machinery, and a resubmission through
// the fleet must execute zero simulations.
func TestFleetServiceMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker integration test")
	}
	manifest, err := os.ReadFile("../../../examples/campaign/iqsweep.json")
	if err != nil {
		t.Fatal(err)
	}

	shared := experiments.NewMemStore()
	coord := fleet.NewCoordinator(fleet.Config{
		Store:        shared,
		LeaseTTL:     5 * time.Second,
		PollInterval: 20 * time.Millisecond,
	})
	fleetSrv := startServer(t, Config{Workers: 4, Store: shared, Fleet: coord, SampleInterval: -1})
	startFleetWorkers(t, fleetSrv, 3, nil)

	st := submit(t, fleetSrv, string(manifest))
	final := waitFinished(t, fleetSrv, st.ID)
	if final.State != StateDone {
		t.Fatalf("fleet job state = %s (%s)", final.State, final.Error)
	}
	if final.Failed != 0 {
		t.Fatalf("fleet job failed %d items", final.Failed)
	}
	rsFleet := getResults(t, fleetSrv, st.ID)

	// The reference: the same manifest on a plain single-process daemon.
	localSrv := startServer(t, Config{Workers: 4, SampleInterval: -1})
	stLocal := submit(t, localSrv, string(manifest))
	waitFinished(t, localSrv, stLocal.ID)
	rsLocal := getResults(t, localSrv, stLocal.ID)

	if len(rsFleet.Results) != len(rsLocal.Results) {
		t.Fatalf("fleet %d rows, local %d rows", len(rsFleet.Results), len(rsLocal.Results))
	}
	for i := range rsLocal.Results {
		if !reflect.DeepEqual(rsFleet.Results[i], rsLocal.Results[i]) {
			t.Errorf("row %d diverges:\nfleet: %+v\nlocal: %+v", i, rsFleet.Results[i], rsLocal.Results[i])
		}
	}
	if rsFleet.Executed != rsLocal.Executed || rsFleet.StoreHits != rsLocal.StoreHits {
		t.Fatalf("tally diverges: fleet executed=%d hits=%d, local executed=%d hits=%d",
			rsFleet.Executed, rsFleet.StoreHits, rsLocal.Executed, rsLocal.StoreHits)
	}

	// Every item counted exactly once in the daemon's executed counter —
	// leases, retries and duplicate completion reports must not inflate it.
	m := scrape(t, fleetSrv.URL)
	if got := m["clustersmt_sims_executed_total"]; got != float64(rsFleet.Total) {
		t.Errorf("executed_total = %v, want %d", got, rsFleet.Total)
	}

	// Resubmission through the fleet: all store hits, zero executions, and
	// the executed counter does not move.
	st2 := submit(t, fleetSrv, string(manifest))
	final2 := waitFinished(t, fleetSrv, st2.ID)
	if final2.State != StateDone {
		t.Fatalf("resubmitted job state = %s (%s)", final2.State, final2.Error)
	}
	rs2 := getResults(t, fleetSrv, st2.ID)
	if rs2.Executed != 0 || rs2.StoreHits != rs2.Total {
		t.Fatalf("resubmission executed %d, hits %d of %d — fleet store dedup broken",
			rs2.Executed, rs2.StoreHits, rs2.Total)
	}
	m = scrape(t, fleetSrv.URL)
	if got := m["clustersmt_sims_executed_total"]; got != float64(rsFleet.Total) {
		t.Errorf("executed_total after resubmit = %v, want %d (unchanged)", got, rsFleet.Total)
	}
	if got := m["clustersmt_store_hits_total"]; got != float64(rs2.Total) {
		t.Errorf("store_hits_total = %v, want %d", got, rs2.Total)
	}
}

// countingStore counts Gets and Puts per key over an in-memory store.
type countingStore struct {
	inner      *experiments.MemStore
	mu         sync.Mutex
	gets, puts map[string]int
}

func newCountingStore() *countingStore {
	return &countingStore{inner: experiments.NewMemStore(), gets: map[string]int{}, puts: map[string]int{}}
}

func (c *countingStore) Get(key string) (*metrics.Stats, bool, error) {
	c.mu.Lock()
	c.gets[key]++
	c.mu.Unlock()
	return c.inner.Get(key)
}

func (c *countingStore) Put(key string, st *metrics.Stats) error {
	c.mu.Lock()
	c.puts[key]++
	c.mu.Unlock()
	return c.inner.Put(key, st)
}

// pathRecorder is a transport that records every request path it carries.
type pathRecorder struct {
	mu    sync.Mutex
	paths []string
}

func (p *pathRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	p.mu.Lock()
	p.paths = append(p.paths, r.URL.Path)
	p.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// TestFleetEngineIsTheOnlyStoreClient: in fleet mode the daemon's engine
// is the store's one reader and writer. Each item costs one Get and each
// executed item one Put, workers talk to the coordinator only over the
// /v1/workers routes, and no route serves store entries.
func TestFleetEngineIsTheOnlyStoreClient(t *testing.T) {
	st := newCountingStore()
	coord := fleet.NewCoordinator(fleet.Config{Store: st, PollInterval: 20 * time.Millisecond})
	srv := startServer(t, Config{Workers: 2, Store: st, Fleet: coord, SampleInterval: -1})
	rec := &pathRecorder{}
	startFleetWorkers(t, srv, 2, &http.Client{Transport: rec})

	job := submit(t, srv, `{"workloads": ["dh.ilp.2.1"], "schemes": ["icount", "cssp", "cisp"], "trace_lens": [2000]}`)
	if final := waitFinished(t, srv, job.ID); final.State != StateDone || final.Failed != 0 {
		t.Fatalf("fleet job state = %s, %d failed (%s)", final.State, final.Failed, final.Error)
	}
	rs := getResults(t, srv, job.ID)
	if rs.Executed != rs.Total {
		t.Fatalf("executed %d of %d items on a fresh store", rs.Executed, rs.Total)
	}
	st.mu.Lock()
	for _, r := range rs.Results {
		if st.gets[r.Key] != 1 || st.puts[r.Key] != 1 {
			t.Errorf("item %s: %d gets, %d puts; want 1 and 1", r.Label, st.gets[r.Key], st.puts[r.Key])
		}
	}
	if len(st.gets) != rs.Total || len(st.puts) != rs.Total {
		t.Errorf("store saw %d keys read and %d written, want %d each", len(st.gets), len(st.puts), rs.Total)
	}
	st.mu.Unlock()

	rec.mu.Lock()
	for _, p := range rec.paths {
		if !strings.HasPrefix(p, "/v1/workers") {
			t.Errorf("worker requested %s", p)
		}
	}
	rec.mu.Unlock()

	resp, err := http.Get(srv.URL + "/v1/store/" + rs.Results[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/store/<stored key> = %d, want 404", resp.StatusCode)
	}
}
