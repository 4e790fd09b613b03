package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

func startCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(cfg)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestWorkerLifecycleOverHTTP(t *testing.T) {
	c, srv := startCoordinator(t, Config{LeaseTTL: time.Minute})

	var reg RegisterResponse
	if code := postJSON(t, srv.URL+"/v1/workers", RegisterRequest{Name: "box1"}, &reg); code != http.StatusOK {
		t.Fatalf("register status = %d", code)
	}
	if reg.ID == "" || reg.LeaseTTLMs != time.Minute.Milliseconds() || reg.HeartbeatMs <= 0 || reg.PollMs <= 0 {
		t.Fatalf("register response = %+v", reg)
	}

	if code := postJSON(t, srv.URL+"/v1/workers/"+reg.ID+"/heartbeat", nil, nil); code != http.StatusNoContent {
		t.Fatalf("heartbeat status = %d, want 204", code)
	}
	if code := postJSON(t, srv.URL+"/v1/workers/w999999/heartbeat", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown-worker heartbeat status = %d, want 404", code)
	}

	// Empty queue: the request is held for the poll interval, then answers
	// OK with zero tasks.
	var lease LeaseResponse
	if code := postJSON(t, srv.URL+"/v1/workers/"+reg.ID+"/lease", LeaseRequest{Max: 4}, &lease); code != http.StatusOK {
		t.Fatalf("lease status = %d", code)
	}
	if len(lease.Tasks) != 0 {
		t.Fatalf("lease response = %+v", lease)
	}
	if code := postJSON(t, srv.URL+"/v1/workers/w999999/lease", LeaseRequest{Max: 1}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown-worker lease status = %d, want 404", code)
	}

	// With work queued, the lease returns it and a completion lands.
	c.queue.Add(Task{ID: "job/0", TraceLen: 1000}, nil)
	if code := postJSON(t, srv.URL+"/v1/workers/"+reg.ID+"/lease", LeaseRequest{Max: 4}, &lease); code != http.StatusOK {
		t.Fatalf("lease status = %d", code)
	}
	if len(lease.Tasks) != 1 || lease.Tasks[0].ID != "job/0" || lease.Tasks[0].Attempt != 1 {
		t.Fatalf("lease tasks = %+v", lease.Tasks)
	}
	var comp CompleteResponse
	body := Completion{ID: "job/0", Attempt: 1, Executed: true, Stats: metrics.NewStats(1, 2)}
	if code := postJSON(t, srv.URL+"/v1/workers/"+reg.ID+"/complete", body, &comp); code != http.StatusOK || !comp.Accepted {
		t.Fatalf("complete = status %d, %+v", code, comp)
	}
	// The same report again is a duplicate: HTTP 200, accepted=false.
	if code := postJSON(t, srv.URL+"/v1/workers/"+reg.ID+"/complete", body, &comp); code != http.StatusOK || comp.Accepted {
		t.Fatalf("duplicate complete = status %d, %+v (want accepted=false)", code, comp)
	}

	var status Status
	resp, err := http.Get(srv.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	// The completed task left the queue; Done still counts it.
	if len(status.Workers) != 1 || status.Queue.Done != 1 || status.Queue.Pending+status.Queue.Leased != 0 ||
		status.Queue.Duplicates != 1 {
		t.Fatalf("status = %+v", status)
	}
}

// TestHeldLeaseEndsOnClose: Coordinator.Close answers an idle worker's held
// lease request with 503 at once (http.Server.Shutdown would otherwise wait
// out the hold), and leaves no goroutine behind.
func TestHeldLeaseEndsOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewCoordinator(Config{PollInterval: time.Minute})
	srv := httptest.NewServer(c.Handler())
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	post := func(path, body string) (*http.Response, error) {
		return client.Post(srv.URL+path, "application/json", strings.NewReader(body))
	}

	resp, err := post("/v1/workers", `{"name": "idle"}`)
	if err != nil {
		t.Fatal(err)
	}
	var reg RegisterResponse
	err = json.NewDecoder(resp.Body).Decode(&reg)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	code := make(chan int, 1)
	go func() {
		resp, err := post("/v1/workers/"+reg.ID+"/lease", `{"max": 1}`)
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	waitHeld(t, c.queue, 1)

	start := time.Now()
	c.Close()
	select {
	case got := <-code:
		if got != http.StatusServiceUnavailable {
			t.Fatalf("held lease answered %d after Close, want 503", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held lease still open 5s after Close")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("held lease ended %s after Close, want under 100ms", d)
	}

	srv.Close()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the coordinator (%d before):\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLeaseHugeMax: the lease batch bound comes from the request body, so
// the grant is sized by what can actually be leased — a huge max must
// neither exhaust the coordinator's memory nor grant more than is queued.
func TestLeaseHugeMax(t *testing.T) {
	c, srv := startCoordinator(t, Config{LeaseTTL: time.Minute})
	var reg RegisterResponse
	if code := postJSON(t, srv.URL+"/v1/workers", RegisterRequest{Name: "greedy"}, &reg); code != http.StatusOK {
		t.Fatalf("register status = %d", code)
	}
	c.queue.Add(Task{ID: "job/0", TraceLen: 1000}, nil)
	var lease LeaseResponse
	if code := postJSON(t, srv.URL+"/v1/workers/"+reg.ID+"/lease", LeaseRequest{Max: 1 << 36}, &lease); code != http.StatusOK {
		t.Fatalf("lease status = %d", code)
	}
	if len(lease.Tasks) != 1 || lease.Tasks[0].ID != "job/0" {
		t.Fatalf("lease tasks = %+v, want the one queued task", lease.Tasks)
	}
}

// TestMalformedCompletionFailsAttempt: a success whose stats do not fit
// the task's spec — none at all, or per-thread slices of the wrong length
// — answers 422 and counts as a failed attempt, so the retry/poison path
// ends the item instead of the stats reaching result assembly, where they
// would index out of range.
func TestMalformedCompletionFailsAttempt(t *testing.T) {
	wl, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	short := metrics.NewStats(2, 2)
	short.IQOccSum[1] = short.IQOccSum[1][:1]
	bodies := []string{
		`{"id":"%s","attempt":%d,"executed":true,"stats":{"Cycles":1}}`,
		`{"id":"%s","attempt":%d,"executed":true}`,
		`{"id":"%s","attempt":%d,"executed":true,"stats":` + mustJSON(t, short) + `}`,
	}
	c, srv := startCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: time.Second,
		RetryBase: time.Millisecond, RetryCap: time.Millisecond, MaxAttempts: len(bodies)})
	var reg RegisterResponse
	if code := postJSON(t, srv.URL+"/v1/workers", RegisterRequest{Name: "garbled"}, &reg); code != http.StatusOK {
		t.Fatalf("register status = %d", code)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Execute(context.Background(), 1000, experiments.Spec{Workload: wl, Scheme: "icount", IQSize: 32, SingleThread: -1})
		done <- err
	}()
	for _, b := range bodies {
		var lease LeaseResponse
		if code := postJSON(t, srv.URL+"/v1/workers/"+reg.ID+"/lease", LeaseRequest{Max: 1}, &lease); code != http.StatusOK || len(lease.Tasks) != 1 {
			t.Fatalf("lease = status %d, %+v", code, lease)
		}
		task := lease.Tasks[0]
		body := fmt.Sprintf(b, task.ID, task.Attempt)
		resp, err := http.Post(srv.URL+"/v1/workers/"+reg.ID+"/complete", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("malformed completion %s: status %d, want 422", body, resp.StatusCode)
		}
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "poisoned") || !strings.Contains(err.Error(), "malformed completion") {
			t.Fatalf("Execute error = %v, want a poison naming the malformed completion", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Execute still waiting after every attempt was malformed; status %+v", c.Status())
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
