package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// faultManifest is the fault-injection campaign: one dh workload × three
// schemes at a short trace length — small enough to finish fast, large
// enough that killing a worker mid-campaign leaves work for the survivors.
func faultManifest(t *testing.T) *campaign.Manifest {
	t.Helper()
	m, err := campaign.Parse([]byte(`{
		"name": "fault",
		"categories": ["dh"],
		"max_per_category": 1,
		"schemes": ["icount", "cisp", "cssp"],
		"trace_lens": [2000]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fastFleet returns a coordinator tuned for test time scales: a 300ms
// liveness ttl, 20ms lease holds, near-immediate retry.
func fastFleet(t *testing.T, st experiments.ResultStore) (*Coordinator, *httptest.Server) {
	t.Helper()
	return startCoordinator(t, Config{
		Store:        st,
		LeaseTTL:     300 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
		RetryBase:    10 * time.Millisecond,
		RetryCap:     50 * time.Millisecond,
		MaxAttempts:  4,
	})
}

// startWorker runs w.Run in a goroutine; the cleanup cancels it and waits.
func startWorker(t *testing.T, w *Worker) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return cancel
}

// runFleet drives a campaign through an Engine that sends its store misses
// to c, over c's store, and collects the result set.
func runFleet(t *testing.T, c *Coordinator, m *campaign.Manifest) *campaign.ResultSet {
	t.Helper()
	return runEngine(t, &campaign.Engine{Store: c.Store(), Resume: true, Exec: c.Execute}, c, m)
}

// runEngine runs m on eng, failing the test if it does not finish in time.
func runEngine(t *testing.T, eng *campaign.Engine, c *Coordinator, m *campaign.Manifest) *campaign.ResultSet {
	t.Helper()
	type res struct {
		rs  *campaign.ResultSet
		err error
	}
	ch := make(chan res, 1)
	go func() {
		rs, err := eng.RunCtx(context.Background(), m, nil)
		ch <- res{rs, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("fleet RunCtx: %v", r.err)
		}
		return r.rs
	case <-time.After(2 * time.Minute):
		t.Fatalf("fleet campaign did not finish; status %+v", c.Status())
		return nil
	}
}

// TestFaultInjection is the fleet's end-to-end failure drill: a campaign
// runs on a fleet whose first worker dies mid-item — its context is
// cancelled after it leases a task, so it reports nothing, exactly like a
// kill -9 between lease and completion. The coordinator must detect the
// loss, requeue the item, and the surviving workers must finish the
// campaign with results bit-for-bit identical to a single-process Engine
// run of the same manifest. Resubmitting the campaign then proves the
// shared store: zero simulations execute the second time.
func TestFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker integration test")
	}
	m := faultManifest(t)
	shared := experiments.NewMemStore()
	coord, srv := fastFleet(t, shared)

	// The victim: single-item batches, and a test seam that cancels its own
	// run context the moment it picks up its first task — after the lease
	// was granted, before any completion could be reported.
	victim, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "victim", Parallel: 1, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	victimCtx, victimCancel := context.WithCancel(context.Background())
	var (
		once       sync.Once
		victimDied = make(chan struct{})
	)
	victim.testOnTaskStart = func(Task) {
		once.Do(func() {
			victimCancel()
			close(victimDied)
		})
	}
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		victim.Run(victimCtx)
	}()
	t.Cleanup(func() { victimCancel(); <-victimDone })

	// Survivors join only after the victim is dead, so the killed item can
	// only finish via requeue.
	go func() {
		<-victimDied
		for i := 0; i < 2; i++ {
			w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: fmt.Sprintf("survivor%d", i), Parallel: 2})
			if err != nil {
				t.Error(err)
				return
			}
			startWorker(t, w)
		}
	}()

	rs := runFleet(t, coord, m)

	select {
	case <-victimDied:
	default:
		t.Fatal("victim never leased a task; the fault was not injected")
	}
	if rs.Failed != 0 {
		t.Fatalf("campaign failed %d items: %+v", rs.Failed, rs.Results)
	}
	st := coord.Status().Queue
	if st.Expirations == 0 {
		t.Fatalf("victim's lease was never reclaimed: %+v", st)
	}
	if st.Requeues == 0 {
		t.Fatalf("killed item never requeued: %+v", st)
	}

	want := matchLocal(t, m, rs)

	// Resubmit through a fresh engine with no memory of the first run:
	// every item must come back as a store hit — zero simulations.
	rs2 := runFleet(t, coord, m)
	if rs2.Executed != 0 {
		t.Fatalf("resubmission executed %d simulations, want 0 (store dedup broken)", rs2.Executed)
	}
	if rs2.StoreHits != rs2.Total || rs2.Failed != 0 {
		t.Fatalf("resubmission tally: %d hits / %d failed of %d", rs2.StoreHits, rs2.Failed, rs2.Total)
	}
	for i := range want.Results {
		if rs2.Results[i].Key != want.Results[i].Key || rs2.Results[i].IPC != want.Results[i].IPC {
			t.Errorf("resubmitted row %d diverges from engine run", i)
		}
	}
}

// matchLocal runs m on a single-process engine and requires the fleet's
// result set rs to match it bit for bit; it returns the local run. Both
// runs start from empty stores, so every row should be a fresh execution
// with identical keys and metrics.
func matchLocal(t *testing.T, m *campaign.Manifest, rs *campaign.ResultSet) *campaign.ResultSet {
	t.Helper()
	eng := &campaign.Engine{Store: experiments.NewMemStore(), Resume: true}
	want, err := eng.RunCtx(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != len(want.Results) {
		t.Fatalf("fleet produced %d rows, engine %d", len(rs.Results), len(want.Results))
	}
	for i := range want.Results {
		if !reflect.DeepEqual(rs.Results[i], want.Results[i]) {
			t.Errorf("row %d diverges:\nfleet:  %+v\nengine: %+v", i, rs.Results[i], want.Results[i])
		}
	}
	if rs.Executed != want.Executed || rs.StoreHits != want.StoreHits {
		t.Fatalf("tally diverges: fleet executed=%d hits=%d, engine executed=%d hits=%d",
			rs.Executed, rs.StoreHits, want.Executed, want.StoreHits)
	}
	return want
}

// dropFirstComplete is a synthetic network between a worker and its
// coordinator: it loses the first completion POST in transport, before
// the coordinator sees it, and passes every other request through.
type dropFirstComplete struct{ dropped atomic.Bool }

func (d *dropFirstComplete) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/complete") && d.dropped.CompareAndSwap(false, true) {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected: connection reset")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDroppedCompletionIsRetried: a completion lost in transport is posted
// again. The worker stays alive, so its lease on the item stays too: a
// dropped report would leave the campaign unfinished for good.
func TestDroppedCompletionIsRetried(t *testing.T) {
	if testing.Short() {
		t.Skip("worker integration test")
	}
	m := faultManifest(t)
	coord, srv := fastFleet(t, experiments.NewMemStore())
	net := &dropFirstComplete{}
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "lossy", Parallel: 2, Client: &http.Client{Transport: net}})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := (&campaign.Engine{Store: coord.Store(), Resume: true, Exec: coord.Execute}).RunCtx(ctx, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !net.dropped.Load() {
		t.Fatal("no completion was posted; the fault was not injected")
	}
	if ctx.Err() != nil || rs.Failed != 0 {
		t.Fatalf("campaign unfinished after 10s (%d of %d items failed); status %+v", rs.Failed, rs.Total, coord.Status())
	}
	matchLocal(t, m, rs)
	if q := coord.Status().Queue; q.Done != int64(rs.Total) || q.Requeues != 0 || q.Duplicates != 0 {
		t.Fatalf("queue = %+v, want %d done with no requeue or duplicate", q, rs.Total)
	}
}

// dropFirstTaskLease is a synthetic network between a worker and its
// coordinator: it loses the answer to the first lease request that granted
// tasks, after the coordinator has leased them, and passes everything else
// through.
type dropFirstTaskLease struct{ dropped atomic.Bool }

func (d *dropFirstTaskLease) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/lease") {
		return resp, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var lr LeaseResponse
	if json.Unmarshal(b, &lr) == nil && len(lr.Tasks) > 0 && d.dropped.CompareAndSwap(false, true) {
		return nil, errors.New("injected: connection reset")
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	return resp, nil
}

// TestLostLeaseAnswerIsRequeued: a lease granted by the coordinator whose
// answer the worker never received is requeued when that worker leases
// again. The worker stays alive throughout, so only the lease request
// itself can reclaim the batch.
func TestLostLeaseAnswerIsRequeued(t *testing.T) {
	if testing.Short() {
		t.Skip("worker integration test")
	}
	m := faultManifest(t)
	coord, srv := fastFleet(t, experiments.NewMemStore())
	net := &dropFirstTaskLease{}
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "lossy", Parallel: 2, Client: &http.Client{Transport: net}})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := (&campaign.Engine{Store: coord.Store(), Resume: true, Exec: coord.Execute}).RunCtx(ctx, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !net.dropped.Load() {
		t.Fatal("no lease granted tasks; the fault was not injected")
	}
	if ctx.Err() != nil || rs.Failed != 0 {
		t.Fatalf("campaign unfinished after 10s (%d of %d items failed); status %+v", rs.Failed, rs.Total, coord.Status())
	}
	matchLocal(t, m, rs)
	if q := coord.Status().Queue; q.Requeues == 0 {
		t.Fatalf("queue = %+v, want the lost batch requeued", q)
	}
}

// TestCorruptSharedEntryIsReSimulated: an entry the coordinator's store
// cannot validate is a miss for the engine, as in local mode, so the item
// goes to a worker again.
func TestCorruptSharedEntryIsReSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("worker integration test")
	}
	m := faultManifest(t)
	mem := experiments.NewMemStore()
	coord, srv := fastFleet(t, corrupting{mem})
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "w", Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, w)
	first := runFleet(t, coord, m)
	if mem.Len() != first.Total {
		t.Fatalf("store holds %d entries after the first run, want %d", mem.Len(), first.Total)
	}
	// Every entry now fails validation: the rerun must send each item to
	// the worker again and produce the same rows.
	second := runFleet(t, coord, m)
	if done := coord.Status().Queue.Done; second.Failed != 0 || done != int64(2*second.Total) {
		t.Fatalf("rerun over corrupt entries: %d failed, %d tasks done over both runs, want 0 and %d", second.Failed, done, 2*second.Total)
	}
	for i := range first.Results {
		// The worker may answer from its in-memory results, so only the
		// Cached flag may differ.
		a, b := first.Results[i], second.Results[i]
		a.Cached, b.Cached = false, false
		if !reflect.DeepEqual(a, b) {
			t.Errorf("row %d diverges over corrupt entries:\nfirst:  %+v\nsecond: %+v", i, a, b)
		}
	}
}

// corrupting wraps a store so every Get of a stored key errors — the
// shape a failing disk or checksum mismatch produces.
type corrupting struct{ inner experiments.ResultStore }

func (c corrupting) Get(key string) (*metrics.Stats, bool, error) {
	if _, ok, _ := c.inner.Get(key); ok {
		return nil, false, fmt.Errorf("store: entry %s failed its checksum", key)
	}
	return nil, false, nil
}

func (c corrupting) Put(key string, st *metrics.Stats) error { return c.inner.Put(key, st) }

// TestPoisonedItemsFailCampaign drives a campaign through a worker whose
// every execution fails: each item must exhaust its attempt cap, poison,
// and surface as a failed result — the campaign finishes instead of
// wedging on a broken spec.
func TestPoisonedItemsFailCampaign(t *testing.T) {
	m, err := campaign.Parse([]byte(`{
		"name": "poison",
		"categories": ["dh"],
		"max_per_category": 1,
		"schemes": ["icount"],
		"trace_lens": [1000]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, Config{
		LeaseTTL:     time.Second,
		PollInterval: 10 * time.Millisecond,
		RetryBase:    time.Millisecond,
		RetryCap:     5 * time.Millisecond,
		MaxAttempts:  2,
	})
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "broken", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.testExecuteErr = func(task Task) error {
		return errors.New("simulated hardware fault")
	}
	startWorker(t, w)

	rs := runFleet(t, coord, m)
	if rs.Failed != rs.Total || rs.Total == 0 {
		t.Fatalf("failed %d of %d items, want all", rs.Failed, rs.Total)
	}
	for _, r := range rs.Results {
		if !strings.Contains(r.Error, "poisoned") || !strings.Contains(r.Error, "simulated hardware fault") {
			t.Errorf("item %s error = %q, want poison diagnosis with last failure", r.Label, r.Error)
		}
	}
	if st := coord.Status().Queue; st.Poisoned != int64(rs.Total) {
		t.Fatalf("queue shows %d poisoned, want %d", st.Poisoned, rs.Total)
	}
}

// TestCycleBoundFailsAttempt runs a spec that wedges (isfs.mix.2.1 under
// Icount with 16 registers per cluster) on a real worker: each attempt
// hits the simulation's cycle bound and reports a failure, so the item
// poisons with the bound in its error and nothing is stored.
func TestCycleBoundFailsAttempt(t *testing.T) {
	m, err := campaign.Parse([]byte(`{
		"name": "wedge",
		"workloads": ["isfs.mix.2.1"],
		"schemes": ["icount"],
		"regs_per_cluster": [16],
		"trace_lens": [1000]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, Config{
		LeaseTTL:     time.Second,
		PollInterval: 10 * time.Millisecond,
		RetryBase:    time.Millisecond,
		RetryCap:     5 * time.Millisecond,
		MaxAttempts:  2,
	})
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "w", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, w)

	rs := runFleet(t, coord, m)
	if rs.Total != 1 || rs.Failed != 1 || rs.Executed != 0 {
		t.Fatalf("total %d, failed %d, executed %d; want 1 failed item", rs.Total, rs.Failed, rs.Executed)
	}
	if e := rs.Results[0].Error; !strings.Contains(e, "poisoned") || !strings.Contains(e, "cycle bound") {
		t.Errorf("item error = %q, want poison diagnosis naming the cycle bound", e)
	}
	if _, ok, _ := coord.Store().Get(rs.Results[0].Key); ok {
		t.Error("the bounded run reached the coordinator's store")
	}
}
