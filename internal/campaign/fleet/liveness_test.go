package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

const ttl = 10 * time.Second

// clockFleet is a coordinator on a fake clock with a ttl lease, driven
// through its HTTP handler without a server.
type clockFleet struct {
	t   *testing.T
	clk *fakeClock
	c   *Coordinator
	h   http.Handler
}

// newClockFleet returns a clockFleet whose lease requests are held for at
// most hold (real time).
func newClockFleet(t *testing.T, hold time.Duration) *clockFleet {
	clk := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: ttl, PollInterval: hold,
		RetryBase: 100 * time.Millisecond, RetryCap: time.Second, Clock: clk.now})
	return &clockFleet{t: t, clk: clk, c: c, h: c.Handler()}
}

// post sends body as JSON to path and decodes a 200 answer into out.
func (f *clockFleet) post(path string, body, out any) int {
	f.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		f.t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			f.t.Fatal(err)
		}
	}
	return rec.Code
}

func (f *clockFleet) register(name string) string {
	f.t.Helper()
	var reg RegisterResponse
	if code := f.post("/v1/workers", RegisterRequest{Name: name}, &reg); code != http.StatusOK {
		f.t.Fatalf("register %s: status %d", name, code)
	}
	return reg.ID
}

func (f *clockFleet) heartbeat(id string) int {
	f.t.Helper()
	return f.post("/v1/workers/"+id+"/heartbeat", nil, nil)
}

func (f *clockFleet) lease(id string) []Task {
	f.t.Helper()
	var lr LeaseResponse
	if code := f.post("/v1/workers/"+id+"/lease", LeaseRequest{Max: 4}, &lr); code != http.StatusOK {
		f.t.Fatalf("lease by %s: status %d", id, code)
	}
	return lr.Tasks
}

// TestExpiryRequeuesExactlyOnce: a worker none of whose calls arrives
// within the lease ttl is reaped at another worker's next call; its lease
// requeues exactly once, the reaped ID is gone, and the item leases again
// at the next attempt.
func TestExpiryRequeuesExactlyOnce(t *testing.T) {
	f := newClockFleet(t, time.Millisecond)
	rec := newDoneRecorder(t)
	f.c.queue.Add(Task{ID: "a"}, rec.onDone)
	w1, w2 := f.register("w1"), f.register("w2")
	if got := f.lease(w1); len(got) != 1 || got[0].Attempt != 1 {
		t.Fatalf("lease = %+v, want 1 task at attempt 1", got)
	}

	// w1 falls silent while w2 heartbeats. A ttl after w1's last call the
	// worker is still alive...
	f.clk.advance(ttl / 2)
	f.heartbeat(w2)
	f.clk.advance(ttl / 2)
	f.heartbeat(w2)
	if st := f.c.queue.Stats(); st.Leased != 1 || st.Expirations != 0 {
		t.Fatalf("stats a ttl after w1's last call = %+v, want its lease held", st)
	}
	// ...and past it, w2's next call reaps it.
	f.clk.advance(time.Millisecond)
	f.heartbeat(w2)
	want := QueueStats{Pending: 1, Requeues: 1, Expirations: 1}
	if st := f.c.queue.Stats(); st != want {
		t.Fatalf("stats after the reap = %+v, want %+v", st, want)
	}
	f.heartbeat(w2)
	if st := f.c.Status().Queue; st != want {
		t.Fatalf("stats after further reaps = %+v, want %+v (requeued once)", st, want)
	}
	if code := f.heartbeat(w1); code != http.StatusNotFound {
		t.Fatalf("reaped worker's heartbeat: status %d, want 404", code)
	}

	// The requeued item leases again with a bumped attempt (after backoff).
	f.clk.advance(2 * time.Second)
	if got := f.lease(w2); len(got) != 1 || got[0].Attempt != 2 {
		t.Fatalf("re-lease = %+v, want attempt 2", got)
	}
}

// TestRenewalPreventsRequeue: heartbeats keep a worker, and so its lease,
// alive for four lease ttls while another worker's calls and Status reap
// around it; its completion is then accepted.
func TestRenewalPreventsRequeue(t *testing.T) {
	f := newClockFleet(t, time.Millisecond)
	rec := newDoneRecorder(t)
	f.c.queue.Add(Task{ID: "a"}, rec.onDone)
	w1, w2 := f.register("w1"), f.register("w2")
	f.lease(w1)
	for i := 0; i < 8; i++ {
		f.clk.advance(ttl / 2)
		if code := f.heartbeat(w1); code != http.StatusNoContent {
			t.Fatalf("heartbeat %d: status %d", i, code)
		}
		f.lease(w2)
		if st := f.c.Status().Queue; st.Leased != 1 || st.Expirations != 0 {
			t.Fatalf("lease lost despite heartbeats (round %d): %+v", i, st)
		}
	}
	var comp CompleteResponse
	body := Completion{ID: "a", Attempt: 1, Stats: metrics.NewStats(1, 2)}
	if code := f.post("/v1/workers/"+w1+"/complete", body, &comp); code != http.StatusOK || !comp.Accepted {
		t.Fatalf("completion after 4 ttls: status %d, %+v", code, comp)
	}
	if o, ok := rec.outcome("a"); !ok || o.Err != nil {
		t.Fatalf("outcome = %+v, %v", o, ok)
	}
}

// TestStatusReapsSilentWorker: with no other worker calling, Status alone
// reaps a silent worker and requeues its lease. Nothing reaps in between:
// the coordinator runs no goroutine of its own.
func TestStatusReapsSilentWorker(t *testing.T) {
	f := newClockFleet(t, time.Millisecond)
	f.c.queue.Add(Task{ID: "a"}, nil)
	w1 := f.register("w1")
	f.lease(w1)
	f.clk.advance(ttl + time.Millisecond)
	if st := f.c.queue.Stats(); st.Leased != 1 {
		t.Fatalf("stats before any call = %+v, want the lease still held", st)
	}
	st := f.c.Status()
	if len(st.Workers) != 0 || st.Queue != (QueueStats{Pending: 1, Requeues: 1, Expirations: 1}) {
		t.Fatalf("status = %+v, want no worker and the lease requeued", st)
	}
}

// TestReapedWhileHeldGetsNothing: a worker reaped while its lease request
// is held keeps nothing the request is then granted. Leases carry no
// deadline, so a task granted to a reaped ID would stay leased for good;
// the request answers 404 and the task requeues at once.
func TestReapedWhileHeldGetsNothing(t *testing.T) {
	f := newClockFleet(t, time.Minute)
	w1, w2 := f.register("w1"), f.register("w2")
	code := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		f.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/workers/"+w1+"/lease", bytes.NewReader([]byte(`{"max":1}`))))
		code <- rec.Code
	}()
	waitHeld(t, f.c.queue, 1)
	f.clk.advance(ttl / 2)
	f.heartbeat(w2)
	f.clk.advance(ttl/2 + time.Millisecond)
	f.heartbeat(w2) // reaps w1, whose request is still held
	f.c.queue.Add(Task{ID: "a"}, nil)
	select {
	case got := <-code:
		if got != http.StatusNotFound {
			t.Fatalf("held lease of a reaped worker answered %d, want 404", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held lease still open 5s after work arrived")
	}
	if st := f.c.queue.Stats(); st.Pending != 1 || st.Leased != 0 || st.Expirations != 1 {
		t.Fatalf("stats = %+v, want the task granted to the reaped worker requeued", st)
	}
	f.clk.advance(2 * time.Second)
	if got := f.lease(w2); len(got) != 1 || got[0].ID != "a" || got[0].Attempt != 2 {
		t.Fatalf("w2 leased %+v, want task a at attempt 2", got)
	}
}

// TestSlowTaskOutlivesLeaseTTL: a real worker whose one task runs for more
// than three lease ttls keeps its lease — its heartbeats keep it alive
// while Status reaps around it — and its completion is accepted with
// nothing requeued.
func TestSlowTaskOutlivesLeaseTTL(t *testing.T) {
	if testing.Short() {
		t.Skip("worker integration test")
	}
	const leaseTTL = 300 * time.Millisecond
	coord, srv := startCoordinator(t, Config{LeaseTTL: leaseTTL, PollInterval: 20 * time.Millisecond})
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "slow", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.testOnTaskStart = func(Task) {
		for start := time.Now(); time.Since(start) < 3*leaseTTL+leaseTTL/3; {
			time.Sleep(leaseTTL / 10)
			if q := coord.Status().Queue; q.Leased != 1 || q.Expirations != 0 {
				t.Errorf("slow task's lease lost after %s: %+v", time.Since(start), q)
				return
			}
		}
	}
	startWorker(t, w)
	wl, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, executed, err := coord.Execute(context.Background(), 1000, experiments.Spec{Workload: wl, Scheme: "icount", IQSize: 32, SingleThread: -1})
	if err != nil || !executed {
		t.Fatalf("Execute: executed=%v, err=%v", executed, err)
	}
	if d := time.Since(start); d <= 3*leaseTTL {
		t.Fatalf("task finished after %s, want over 3 lease ttls (%s)", d, 3*leaseTTL)
	}
	if q := coord.Status().Queue; q.Done != 1 || q.Requeues != 0 || q.Expirations != 0 || q.Duplicates != 0 {
		t.Fatalf("queue = %+v, want one task done and nothing requeued", q)
	}
}
