package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/metrics"
)

// TestIdleWorkerWakesOnSubmit is the long-poll drill: a registered worker
// sits idle under a 5s PollInterval, and a campaign submitted while its
// lease request is held must finish in well under one hold — the enqueue
// wakes the held request instead of the worker sleeping out a poll.
func TestIdleWorkerWakesOnSubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("worker integration test")
	}
	coord, srv := startCoordinator(t, Config{PollInterval: 5 * time.Second})
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "idle", Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, w)
	waitHeld(t, coord.queue, 1) // registered, idle, lease request held

	start := time.Now()
	rs := runFleet(t, coord, faultManifest(t))
	if d := time.Since(start); d > time.Second {
		t.Fatalf("idle worker finished a fresh campaign in %s, want under 1s (hold is 5s)", d)
	}
	if rs.Failed != 0 || rs.Executed != rs.Total {
		t.Fatalf("campaign: %d executed, %d failed of %d", rs.Executed, rs.Failed, rs.Total)
	}
}

// driveQueue runs m on eng, whose Exec is c.Execute, with the test playing
// the only worker against the queue directly: every leased task is
// answered with complete(task).
func driveQueue(t *testing.T, c *Coordinator, eng *campaign.Engine, m *campaign.Manifest, complete func(Task) Completion) *campaign.ResultSet {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		live := func() []string { return []string{"w1"} }
		for ctx.Err() == nil {
			tasks, _ := c.queue.LeaseWait(ctx, "w1", live, 8, time.Minute, 10*time.Millisecond)
			for _, task := range tasks {
				c.queue.Complete("w1", complete(task))
			}
		}
	}()
	defer func() { cancel(); <-done }()
	return runEngine(t, eng, c, m)
}

func succeed(task Task) Completion {
	return Completion{ID: task.ID, Attempt: task.Attempt, Executed: true, Stats: &metrics.Stats{}}
}

// failingPut is a result store whose every Put fails.
type failingPut struct{}

func (failingPut) Get(string) (*metrics.Stats, bool, error) { return nil, false, nil }
func (failingPut) Put(string, *metrics.Stats) error         { return errors.New("disk full") }

// TestStorePutFailureCounted: in fleet mode the engine writes each
// completed result into its store, as in local mode; the write can fail,
// the item still completes, and each failure is counted once, by the
// engine, and logged.
func TestStorePutFailureCounted(t *testing.T) {
	var (
		mu   sync.Mutex
		logs []string
	)
	c := NewCoordinator(Config{})
	eng := &campaign.Engine{Store: failingPut{}, Resume: true, Exec: c.Execute, Verbose: func(s string) {
		mu.Lock()
		logs = append(logs, s)
		mu.Unlock()
	}}
	rs := driveQueue(t, c, eng, faultManifest(t), succeed)
	if rs.Failed != 0 || rs.Executed != rs.Total {
		t.Fatalf("campaign: %d executed, %d failed of %d", rs.Executed, rs.Failed, rs.Total)
	}
	if got := eng.StorePutErrors(); got != int64(rs.Total) {
		t.Fatalf("StorePutErrors = %d, want %d (one per item)", got, rs.Total)
	}
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, l := range logs {
		if strings.Contains(l, "disk full") {
			n++
		}
	}
	if n != rs.Total {
		t.Fatalf("%d store-put failures logged, want %d:\n%s", n, rs.Total, strings.Join(logs, "\n"))
	}
}

// TestQueueEmptyAfterCampaigns pins the dispatch-queue leak fix: once
// campaigns finish — items completed or poisoned — the queue holds none of
// their tasks (nor the callbacks that pin each campaign's ResultSet),
// while the Done and Poisoned counters keep the history.
func TestQueueEmptyAfterCampaigns(t *testing.T) {
	c := NewCoordinator(Config{MaxAttempts: 1})
	const campaigns = 3
	total := 0
	for i := 0; i < campaigns; i++ {
		eng := &campaign.Engine{Resume: true, Exec: c.Execute}
		rs := driveQueue(t, c, eng, faultManifest(t), func(task Task) Completion {
			if task.Spec.Scheme == "icount" {
				return Completion{ID: task.ID, Attempt: task.Attempt, Error: "bad spec"}
			}
			return succeed(task)
		})
		if rs.Failed != 1 {
			t.Fatalf("campaign %d: %d failed, want 1 poisoned item", i, rs.Failed)
		}
		total += rs.Total
	}
	c.queue.mu.Lock()
	n := len(c.queue.tasks)
	c.queue.mu.Unlock()
	if n != 0 {
		t.Fatalf("queue holds %d tasks after %d finished campaigns", n, campaigns)
	}
	if st := c.Status().Queue; st.Done != int64(total-campaigns) || st.Poisoned != campaigns {
		t.Fatalf("queue stats %+v, want done %d, poisoned %d", st, total-campaigns, campaigns)
	}
}

// TestEveryTraceLengthDispatchedAtOnce: the engine hands the fleet a
// campaign's items of every trace length together, so idle workers never
// wait on one length's stragglers before the next length is enqueued.
// Nothing completes until tasks of both lengths are in the queue.
func TestEveryTraceLengthDispatchedAtOnce(t *testing.T) {
	m, err := campaign.Parse([]byte(`{
		"name": "two-lengths",
		"workloads": ["ispec00.mix.2.1"],
		"schemes": ["icount", "cssp"],
		"trace_lens": [2000, 3000]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{})
	eng := &campaign.Engine{Resume: true, Exec: c.Execute}
	seen := func() map[int]int {
		c.queue.mu.Lock()
		defer c.queue.mu.Unlock()
		n := map[int]int{}
		for _, qt := range c.queue.tasks {
			n[qt.task.TraceLen]++
		}
		return n
	}
	// Only the test's lease loop calls complete, so waiting here holds
	// back every completion until the first check passes.
	deadline := time.Now().Add(10 * time.Second)
	both := false
	rs := driveQueue(t, c, eng, m, func(task Task) Completion {
		for !both {
			switch n := seen(); {
			case n[2000] == 2 && n[3000] == 2:
				both = true
			case time.Now().After(deadline):
				t.Errorf("queue holds %v tasks per trace length, want 2 of each before any completes", n)
				both = true
			default:
				time.Sleep(time.Millisecond)
			}
		}
		return succeed(task)
	})
	if rs.Failed != 0 || rs.Executed != rs.Total || rs.Total != 4 {
		t.Fatalf("campaign: %d executed, %d failed of %d", rs.Executed, rs.Failed, rs.Total)
	}
}
