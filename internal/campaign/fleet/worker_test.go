package fleet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
	"clustersmt/internal/workload"
)

// TestWorkerKeepsOnlyBatchRunners serves one worker tasks at six distinct
// trace lengths, one after another. After each, the worker's engine must
// still hold the runner of the current batch — it answers the batch's spec
// from memory — and no runner for an earlier length — those re-simulate —
// so its trace memos do not pile up with every trace length a long-lived
// worker sees.
func TestWorkerKeepsOnlyBatchRunners(t *testing.T) {
	wl, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	// A long poll: an empty batch would recycle every runner, so the
	// worker must not get one between a task and the checks after it.
	coord, srv := startCoordinator(t, Config{PollInterval: time.Minute})
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "lens", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, w)
	spec := experiments.Spec{Workload: wl, Scheme: "icount", IQSize: 32, SingleThread: 0}
	// simulated reports whether the worker's engine simulates spec at tl
	// afresh rather than answering it from a kept runner's memory.
	simulated := func(tl int) bool {
		_, executed, err := w.eng.Batch([]campaign.Item{{Spec: spec, TraceLen: tl}}).Simulate(context.Background(), 0)
		if err != nil {
			t.Fatalf("Simulate at trace length %d: %v", tl, err)
		}
		return executed
	}
	lens := []int{1000, 1001, 1002, 1003, 1004, 1005}
	for i, tl := range lens {
		if _, executed, err := coord.Execute(context.Background(), tl, spec); err != nil || !executed {
			t.Fatalf("trace length %d: executed=%v err=%v", tl, executed, err)
		}
		if simulated(tl) {
			t.Fatalf("after the task at trace length %d the worker no longer holds its runner", tl)
		}
		for _, old := range lens[:i] {
			if !simulated(old) {
				t.Fatalf("after the task at trace length %d the worker still holds the runner for %d", tl, old)
			}
		}
	}
}

// TestWorkerBatchSpansTraceLengths leases one batch holding tasks at two
// trace lengths to a worker with one simulation slot: every task must be
// simulated and reported exactly once.
func TestWorkerBatchSpansTraceLengths(t *testing.T) {
	wl, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, Config{})
	type task struct {
		tl   int
		spec experiments.Spec
	}
	var tasks []task
	for _, tl := range []int{1000, 1500} {
		for _, scheme := range []string{"icount", "stall"} {
			tasks = append(tasks, task{tl, experiments.Spec{Workload: wl, Scheme: scheme, IQSize: 32, SingleThread: 0}})
		}
	}
	errs := make(chan error, len(tasks))
	for _, tk := range tasks {
		go func() {
			st, executed, err := coord.Execute(context.Background(), tk.tl, tk.spec)
			if err == nil && (st == nil || !executed) {
				err = fmt.Errorf("%s at %d: stats %v, executed=%v; want a fresh simulation", tk.spec.Scheme, tk.tl, st, executed)
			}
			errs <- err
		}()
	}
	// Every task is pending before the worker's first lease, which then
	// takes them all in one batch.
	deadline := time.Now().Add(5 * time.Second)
	for coord.Status().Queue.Pending != len(tasks) {
		if time.Now().After(deadline) {
			t.Fatalf("queue: %+v, want %d pending tasks", coord.Status().Queue, len(tasks))
		}
		time.Sleep(time.Millisecond)
	}
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "span", Parallel: 1, BatchSize: len(tasks)})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	started := map[string]int{}
	w.testOnTaskStart = func(tk Task) {
		mu.Lock()
		started[tk.ID]++
		mu.Unlock()
	}
	startWorker(t, w)
	for range tasks {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("tasks still outstanding after a minute; queue %+v", coord.Status().Queue)
		}
	}
	if q := coord.Status().Queue; q.Done != int64(len(tasks)) || q.Duplicates != 0 || q.Requeues != 0 {
		t.Errorf("queue: %+v, want %d done and no duplicate or requeue", q, len(tasks))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(started) != len(tasks) {
		t.Errorf("worker started %d distinct tasks, want %d", len(started), len(tasks))
	}
	for id, n := range started {
		if n != 1 {
			t.Errorf("task %s started %d times, want once", id, n)
		}
	}
}

// TestNewWorkerValidatesCoordinator: a coordinator URL without
// scheme://host is a configuration error caught at construction, not at
// the first request.
func TestNewWorkerValidatesCoordinator(t *testing.T) {
	for _, base := range []string{"", "localhost:8080", "/just/a/path", "://nope"} {
		if _, err := NewWorker(WorkerConfig{Coordinator: base}); err == nil {
			t.Errorf("NewWorker accepted coordinator %q", base)
		}
	}
	if _, err := NewWorker(WorkerConfig{Coordinator: "http://localhost:8080/"}); err != nil {
		t.Errorf("NewWorker rejected a good coordinator URL: %v", err)
	}
}
