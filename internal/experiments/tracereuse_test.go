package experiments

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"

	"clustersmt/internal/isa"
	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

// reuseTraceLen keeps the trace-reuse tests' simulations short.
const reuseTraceLen = 4000

// traceBufs returns the first uop's address of each of w's memoized traces
// on r: a trace's identity as a buffer.
func traceBufs(r *Runner, w workload.Workload) map[*isa.Uop]bool {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	bufs := map[*isa.Uop]bool{}
	for i := range w.Threads {
		if e := r.traces[r.traceKey(w, i)]; e != nil {
			bufs[&e.uops[0]] = true
		}
	}
	return bufs
}

// freeBufs returns the first uop's address of each free buffer in r's
// Storage.
func freeBufs(r *Runner) map[*isa.Uop]bool { return FreeTraceBuffers(r.Storage) }

// sameBufs reports whether got and want name the same buffers, and
// describes got against want for a failure message.
func sameBufs(got, want map[*isa.Uop]bool) (bool, string) {
	common := 0
	for p := range got {
		if want[p] {
			common++
		}
	}
	return maps.Equal(got, want), fmt.Sprintf("%d buffers, %d of them among the %d expected", len(got), common, len(want))
}

// mustFind returns the pool workloads with the given names.
func mustFind(t *testing.T, names ...string) []workload.Workload {
	t.Helper()
	ws := make([]workload.Workload, len(names))
	for i, n := range names {
		w, err := workload.Find(n)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// freshStats runs s on a fresh runner.
func freshStats(t *testing.T, s Spec) *metrics.Stats {
	t.Helper()
	st, err := runOne(NewRunner(reuseTraceLen), s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTraceReuseAfterDrop: once a workload's traces are dropped and no
// simulation reads them, the next workload's traces are generated into
// their buffers and simulate exactly as freshly allocated ones.
func TestTraceReuseAfterDrop(t *testing.T) {
	ws := mustFind(t, "server.mem.2.1", "isfs.mix.2.1")
	a, b := table4Spec(ws[0], "icount"), table4Spec(ws[1], "cdprf")
	r := NewRunner(reuseTraceLen)
	if _, err := runOne(r, a); err != nil {
		t.Fatal(err)
	}
	bufs := traceBufs(r, ws[0])
	r.DropTraces(ws[0])
	if ok, desc := sameBufs(freeBufs(r), bufs); !ok {
		t.Fatalf("dropping unread traces freed %s", desc)
	}
	got, err := runOne(r, b)
	if err != nil {
		t.Fatal(err)
	}
	if ok, desc := sameBufs(traceBufs(r, ws[1]), bufs); !ok {
		t.Errorf("the next workload's traces occupy %s, the dropped ones", desc)
	}
	if n := len(freeBufs(r)); n != 0 {
		t.Errorf("%d buffers left free, want 0", n)
	}
	if want := freshStats(t, b); !reflect.DeepEqual(got, want) {
		t.Errorf("run on reused trace buffers differs from a fresh run\n got %+v\nwant %+v", got, want)
	}
}

// TestTraceReuseWaitsForHolders: a workload dropped while a simulation
// still reads its traces keeps their buffers until the simulation ends. A
// workload simulated meanwhile gets fresh buffers, the held run's results
// equal a fresh run's, and its end hands the buffers on.
func TestTraceReuseWaitsForHolders(t *testing.T) {
	ws := mustFind(t, "server.mem.2.1", "isfs.mix.2.1")
	a, b := table4Spec(ws[0], "cdprf"), table4Spec(ws[1], "icount")
	r := NewRunner(reuseTraceLen)
	r.SampleInterval = 256

	held, resume := make(chan struct{}), make(chan struct{})
	var pause, unpause sync.Once
	defer unpause.Do(func() { close(resume) })
	type result struct {
		st  *metrics.Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, _, _, _, err := r.Do(context.Background(), a, func(metrics.Sample) {
			pause.Do(func() { close(held); <-resume })
		})
		done <- result{st, err}
	}()
	<-held

	bufs := traceBufs(r, ws[0])
	r.DropTraces(ws[0])
	if n := len(freeBufs(r)); n != 0 {
		t.Errorf("dropping traces a running simulation reads freed %d buffers, want 0", n)
	}
	gotB, err := runOne(r, b)
	if err != nil {
		t.Fatal(err)
	}
	for p := range traceBufs(r, ws[1]) {
		if bufs[p] {
			t.Error("a trace was generated into a buffer a running simulation reads")
		}
	}
	unpause.Do(func() { close(resume) })
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if ok, desc := sameBufs(freeBufs(r), bufs); !ok {
		t.Errorf("the held run's end freed %s, its dropped ones", desc)
	}
	if want := freshStats(t, a); !reflect.DeepEqual(res.st, want) {
		t.Errorf("held run differs from a fresh run\n got %+v\nwant %+v", res.st, want)
	}
	if want := freshStats(t, b); !reflect.DeepEqual(gotB, want) {
		t.Errorf("concurrent run differs from a fresh run\n got %+v\nwant %+v", gotB, want)
	}
}

// TestTraceReuseAfterCancel: a cancelled simulation and one whose scheme
// does not parse return their holds, so their traces' buffers are reused
// once dropped.
func TestTraceReuseAfterCancel(t *testing.T) {
	ws := mustFind(t, "server.mem.2.1", "isfs.mix.2.1", "dh.ilp.2.1")
	r := NewRunner(reuseTraceLen)
	r.SampleInterval = 256
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, _, executed, _, err := r.Do(ctx, table4Spec(ws[0], "cdprf"), func(metrics.Sample) { cancel() }); !errors.Is(err, context.Canceled) || executed {
		t.Fatalf("cancelled run: executed=%v, err = %v; want context.Canceled, not executed", executed, err)
	}
	bufs := traceBufs(r, ws[0])
	r.DropTraces(ws[0])
	if ok, desc := sameBufs(freeBufs(r), bufs); !ok {
		t.Fatalf("a cancelled run's dropped traces freed %s", desc)
	}

	if _, err := runOne(r, table4Spec(ws[1], "no-such-scheme")); err == nil {
		t.Fatal("unknown scheme simulated")
	}
	if ok, desc := sameBufs(traceBufs(r, ws[1]), bufs); !ok {
		t.Errorf("traces after the cancelled run occupy %s, the cancelled run's", desc)
	}
	r.DropTraces(ws[1])
	if ok, desc := sameBufs(freeBufs(r), bufs); !ok {
		t.Fatalf("a failed build's dropped traces freed %s", desc)
	}

	c := table4Spec(ws[2], "icount")
	got, err := runOne(r, c)
	if err != nil {
		t.Fatal(err)
	}
	if ok, desc := sameBufs(traceBufs(r, ws[2]), bufs); !ok {
		t.Errorf("traces occupy %s, the freed ones", desc)
	}
	if want := freshStats(t, c); !reflect.DeepEqual(got, want) {
		t.Errorf("run on reused trace buffers differs from a fresh run\n got %+v\nwant %+v", got, want)
	}
}
