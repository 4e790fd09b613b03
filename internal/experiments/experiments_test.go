package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

// iqStudySpec is workload w under scheme on the §5.1 issue-queue study
// machine: iq entries per cluster, register file and ROB unbounded.
func iqStudySpec(w workload.Workload, scheme string, iq int) Spec {
	return Spec{Workload: w, Scheme: scheme, IQSize: iq, SingleThread: -1}
}

// runOne runs (or recalls) one spec on r.
func runOne(r *Runner, s Spec) (*metrics.Stats, error) {
	return runOneCtx(context.Background(), r, s)
}

// runOneCtx is runOne under ctx.
func runOneCtx(ctx context.Context, r *Runner, s Spec) (*metrics.Stats, error) {
	st, _, _, _, err := r.Do(ctx, s, nil)
	return st, err
}

// doAll answers specs on r from workers goroutines, as the campaign
// engine's pool does, and returns each spec's content key and how many
// specs Do reported executed.
func doAll(r *Runner, specs []Spec, workers int) ([]string, int, error) {
	keys := make([]string, len(specs))
	errs := make([]error, len(specs))
	var next, executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				var ran bool
				_, keys[i], ran, _, errs[i] = r.Do(context.Background(), specs[i], nil)
				if ran {
					executed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return keys, int(executed.Load()), errors.Join(errs...)
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(2000)
	var executed int32
	r.Verbose = func(string) { atomic.AddInt32(&executed, 1) }
	w := workload.ByCategory("ispec00")[0]
	spec := iqStudySpec(w, "icount", 32)
	a, err := runOne(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second run not served from cache")
	}
	if executed != 1 {
		t.Errorf("executed %d times, want 1", executed)
	}
}

func TestSpecKeyDistinguishesDimensions(t *testing.T) {
	w := workload.ByCategory("ispec00")[0]
	base := iqStudySpec(w, "icount", 32)
	variants := []Spec{
		iqStudySpec(w, "cssp", 32),
		iqStudySpec(w, "icount", 64),
		table4Spec(w, "icount"),
		{Workload: w, Scheme: "icount", IQSize: 32, SingleThread: 0},
		func() Spec { s := base; s.NumClusters = 3; return s }(),
		func() Spec { s := base; s.Links = 1; return s }(),
		func() Spec { s := base; s.LinkLatency = 4; return s }(),
		func() Spec { s := base; s.MemLatency = 300; return s }(),
	}
	for i, v := range variants {
		if v.key() == base.key() {
			t.Errorf("variant %d collides with base key %q", i, base.key())
		}
	}
}

func TestOptionsSubsetBalanced(t *testing.T) {
	o := Options{MaxPerCategory: 3}
	ws := o.workloads("ispec00")
	if len(ws) != 3 {
		t.Fatalf("got %d workloads", len(ws))
	}
	types := map[workload.Type]bool{}
	for _, w := range ws {
		types[w.Type] = true
	}
	if len(types) != 3 {
		t.Errorf("capped subset covers %d types, want all 3", len(types))
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if len(o.categories()) != len(workload.Categories) {
		t.Error("default categories should be all")
	}
	if len(o.Selected()) != 120 {
		t.Errorf("default pool %d, want 120", len(o.Selected()))
	}
}
