package fleet

import (
	"context"
	"testing"

	"clustersmt/internal/experiments"
	"clustersmt/internal/workload"
)

// TestWorkerKeepsOnlyBatchRunners serves one worker tasks at six distinct
// trace lengths, one after another. After each, the worker must still hold
// the runner of the current batch — the one that simulated it — and no
// runner for an earlier length, so its trace memos do not pile up with
// every trace length a long-lived worker sees.
func TestWorkerKeepsOnlyBatchRunners(t *testing.T) {
	wl, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	coord, srv := startCoordinator(t, Config{})
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, Name: "lens", Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, w)
	// simulated reports whether the worker's runner for tl has run a
	// simulation: a runner dropped by the worker comes back fresh.
	simulated := func(tl int) bool {
		var n int64
		w.eng.WithRunner(tl, func(r *experiments.Runner) { n = r.Executed() })
		return n > 0
	}
	lens := []int{1000, 1001, 1002, 1003, 1004, 1005}
	for i, tl := range lens {
		spec := experiments.Spec{Workload: wl, Scheme: "icount", IQSize: 32, SingleThread: 0}
		if _, executed, err := coord.Execute(context.Background(), tl, spec); err != nil || !executed {
			t.Fatalf("trace length %d: executed=%v err=%v", tl, executed, err)
		}
		if !simulated(tl) {
			t.Fatalf("after the task at trace length %d the worker no longer holds its runner", tl)
		}
		for _, old := range lens[:i] {
			if simulated(old) {
				t.Fatalf("after the task at trace length %d the worker still holds the runner for %d", tl, old)
			}
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
