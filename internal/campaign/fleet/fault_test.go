package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
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

// fastFleet returns a coordinator tuned for test time scales: 300ms
// leases, 20ms failure-detector ticks, near-immediate retry.
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

// runFleet drives a campaign through the coordinator and collects the
// result set, failing the test if it does not finish in time.
func runFleet(t *testing.T, c *Coordinator, m *campaign.Manifest) *campaign.ResultSet {
	t.Helper()
	type res struct {
		rs  *campaign.ResultSet
		err error
	}
	ch := make(chan res, 1)
	go func() {
		rs, err := c.RunCtx(context.Background(), m, nil)
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
// run of the same manifest. A fresh worker resubmitting the campaign then
// proves the shared store: zero simulations execute the second time.
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

	// Bit-for-bit comparison against the single-process engine on the same
	// manifest. Both runs start from empty stores, so every row should be a
	// fresh execution with identical keys and metrics.
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

	// Resubmit through a fresh worker with no memory of the first run: every
	// item must come back as a store hit — zero simulations.
	fresh, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "fresh"})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, fresh)
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
