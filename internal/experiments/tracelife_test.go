package experiments_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"clustersmt/internal/campaign"
	"clustersmt/internal/experiments"
	"clustersmt/internal/figures"
	"clustersmt/internal/workload"
)

// memoWatch observes every runner's trace memo through the test hook:
// generations per (runner, seed), the most workloads one runner held at
// once, and every runner that memoized anything.
type memoWatch struct {
	mu      sync.Mutex
	owner   map[uint64]string // seed -> workload name
	gens    map[*experiments.Runner]map[uint64]int
	maxWork int
}

// watchMemos installs a memoWatch for the workloads of plans until the test
// ends. Install it only while no engine runs.
func watchMemos(t *testing.T, plans ...*campaign.Plan) *memoWatch {
	w := &memoWatch{owner: map[uint64]string{}, gens: map[*experiments.Runner]map[uint64]int{}}
	for _, p := range plans {
		for _, it := range p.Items {
			for _, s := range it.Spec.Workload.Seeds {
				w.owner[s] = it.Spec.Workload.Name
			}
		}
	}
	experiments.SetTraceMemoHook(func(r *experiments.Runner, seed uint64, memo []uint64) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.gens[r] == nil {
			w.gens[r] = map[uint64]int{}
		}
		w.gens[r][seed]++
		held := map[string]bool{}
		for _, s := range memo {
			held[w.owner[s]] = true
		}
		w.maxWork = max(w.maxWork, len(held))
	})
	t.Cleanup(func() { experiments.SetTraceMemoHook(nil) })
	return w
}

// reset forgets what w has seen so far.
func (w *memoWatch) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gens = map[*experiments.Runner]map[uint64]int{}
	w.maxWork = 0
}

// leftover returns how many traces the runners w has seen still hold.
func (w *memoWatch) leftover() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for r := range w.gens {
		n += experiments.TraceCount(r)
	}
	return n
}

func mustPlan(t *testing.T, src string) *campaign.Plan {
	t.Helper()
	m, err := campaign.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	p, err := campaign.NewPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lifetimeManifest is workload-major with baselines: each workload's two
// threads are needed by its baselines and its SMT items.
const lifetimeManifest = `{"workloads":["dh.ilp.2.1","isfs.mix.2.1","ispec00.mem.2.1","server.mix.2.1"],
	"schemes":["icount","cdprf"],"single_thread_baselines":true,"repetitions":2,"trace_lens":[1000]}`

// TestTraceLifetimeFollowsPlan: RunPlan generates each needed trace exactly
// once, never holds more than Workers+1 workloads' traces, and leaves the
// memo empty when it returns, a cancelled plan included.
func TestTraceLifetimeFollowsPlan(t *testing.T) {
	plan := mustPlan(t, lifetimeManifest)
	watch := watchMemos(t, plan)
	for _, workers := range []int{1, 2} {
		watch.reset()
		eng := &campaign.Engine{Workers: workers, Resume: true}
		rs := eng.RunPlan(context.Background(), plan, nil)
		if rs.Failed != 0 || rs.Executed != len(plan.Items) {
			t.Fatalf("workers %d: %d executed, %d failed of %d", workers, rs.Executed, rs.Failed, rs.Total)
		}
		if len(watch.gens) != 1 {
			t.Fatalf("workers %d: %d runners memoized traces, want 1", workers, len(watch.gens))
		}
		for _, gens := range watch.gens {
			if want := len(watch.owner); len(gens) != want {
				t.Errorf("workers %d: %d traces generated, want %d", workers, len(gens), want)
			}
			for seed, n := range gens {
				if n != 1 {
					t.Errorf("workers %d: trace %x (%s) generated %d times", workers, seed, watch.owner[seed], n)
				}
			}
		}
		if watch.maxWork > workers+1 {
			t.Errorf("workers %d: %d workloads' traces memoized at once, want at most %d", workers, watch.maxWork, workers+1)
		}
		if n := watch.leftover(); n != 0 {
			t.Errorf("workers %d: %d traces memoized after RunPlan", workers, n)
		}

		// A plan cancelled mid-run leaves nothing memoized either.
		watch.reset()
		ctx, cancel := context.WithCancel(context.Background())
		done := 0
		var mu sync.Mutex
		eng = &campaign.Engine{Workers: workers, Resume: true}
		rs = eng.RunPlan(ctx, plan, func(ev campaign.ItemEvent) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Result != nil {
				if done++; done == 5 {
					cancel()
				}
			}
		})
		cancel()
		if rs.Failed == 0 || len(watch.gens) == 0 {
			t.Errorf("workers %d: cancelled plan failed %d items, generated traces on %d runners; want both nonzero",
				workers, rs.Failed, len(watch.gens))
		}
		if n := watch.leftover(); n != 0 {
			t.Errorf("workers %d: %d traces memoized after a cancelled RunPlan", workers, n)
		}
	}
}

// TestTraceLifetimeConcurrentPlans: two overlapping plans and a third,
// cancelled mid-run, share one engine's pin counts. Once all three have
// pinned their workloads, no plan drops a trace another still needs: each
// trace is generated once, and the uncancelled plans' rows equal a fresh
// engine's. No trace stays memoized once all three return.
func TestTraceLifetimeConcurrentPlans(t *testing.T) {
	plans := []*campaign.Plan{
		mustPlan(t, `{"workloads":["dh.ilp.2.1","isfs.mix.2.1","ispec00.mem.2.1"],
			"schemes":["icount","cdprf"],"single_thread_baselines":true,"trace_lens":[1000]}`),
		mustPlan(t, `{"workloads":["isfs.mix.2.1","ispec00.mem.2.1","server.mix.2.1"],
			"schemes":["cdprf","flush+"],"trace_lens":[1000]}`),
		mustPlan(t, `{"workloads":["dh.ilp.2.1","isfs.mix.2.1","ispec00.mem.2.1","server.mix.2.1"],
			"schemes":["cssp","cdprf"],"trace_lens":[1000]}`),
	}
	watch := watchMemos(t, plans...)

	eng := &campaign.Engine{Workers: 2, Resume: true}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg, pinned sync.WaitGroup
		mu         sync.Mutex
		done       int
		got        = make([]*campaign.ResultSet, len(plans))
	)
	pinned.Add(len(plans))
	for i, p := range plans {
		runCtx := context.Background()
		if i == len(plans)-1 {
			runCtx = ctx
		}
		var first sync.Once
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = eng.RunPlan(runCtx, p, func(ev campaign.ItemEvent) {
				if ev.Started {
					// RunPlan pins its workloads before its first item
					// starts: hold every item until all plans have.
					first.Do(pinned.Done)
					pinned.Wait()
				}
				if ev.Result != nil && runCtx == ctx {
					mu.Lock()
					defer mu.Unlock()
					if done++; done == 2 {
						cancel()
					}
				}
			})
		}()
	}
	wg.Wait()
	if n := watch.leftover(); n != 0 {
		t.Errorf("%d traces memoized after every plan returned", n)
	}
	for _, gens := range watch.gens {
		for seed, n := range gens {
			if n != 1 {
				t.Errorf("trace %x (%s) generated %d times", seed, watch.owner[seed], n)
			}
		}
	}
	if got[len(plans)-1].Failed == 0 {
		t.Errorf("cancelled plan failed no item")
	}

	for i, p := range plans[:len(plans)-1] {
		want := (&campaign.Engine{Workers: 2, Resume: true}).RunPlan(context.Background(), p, nil)
		if got[i].Failed != 0 {
			t.Fatalf("plan %d: %d items failed: %v", i, got[i].Failed, got[i].Err())
		}
		if !reflect.DeepEqual(uncached(got[i].Results), uncached(want.Results)) {
			t.Errorf("plan %d: rows on the shared engine differ from a fresh engine's", i)
		}
	}
}

// uncached returns rows with Cached cleared: on a shared engine an
// overlapping item may be answered by the other plan's simulation.
func uncached(rows []campaign.Result) []campaign.Result {
	out := append([]campaign.Result(nil), rows...)
	for i := range out {
		out[i].Cached = false
	}
	return out
}

// TestFigureRunGeneratesEachTraceOnce: figures that share workloads run as
// one plan, so each thread's trace is generated once per run, not once per
// campaign, with at most Workers+1 workloads' traces held at once and none
// left over. Each figure's value equals the value of its own run.
func TestFigureRunGeneratesEachTraceOnce(t *testing.T) {
	figs := []figures.Figure{
		figures.Fig2(tinyPool(1000), []string{"icount", "cssp"}, []int{32}),
		figures.Headline(tinyPool(1000)),
	}
	plan, err := figures.Plan(figs...)
	if err != nil {
		t.Fatal(err)
	}
	watch := watchMemos(t, plan)
	const workers = 2
	res, rs, err := figures.Run(context.Background(), &campaign.Engine{Workers: workers, Resume: true}, plan, figs...)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Total != len(plan.Items) || rs.Executed+rs.StoreHits != rs.Total {
		t.Errorf("tally %d executed, %d store hits of %d; want all %d items answered", rs.Executed, rs.StoreHits, rs.Total, len(plan.Items))
	}
	if len(watch.gens) != 1 {
		t.Fatalf("%d runners memoized traces, want 1", len(watch.gens))
	}
	for _, gens := range watch.gens {
		if want := len(watch.owner); len(gens) != want {
			t.Errorf("%d traces generated, want %d", len(gens), want)
		}
		for seed, n := range gens {
			if n != 1 {
				t.Errorf("trace %x (%s) generated %d times", seed, watch.owner[seed], n)
			}
		}
	}
	if watch.maxWork > workers+1 {
		t.Errorf("%d workloads' traces memoized at once, want at most %d", watch.maxWork, workers+1)
	}
	if n := watch.leftover(); n != 0 {
		t.Errorf("%d traces memoized after the run", n)
	}

	experiments.SetTraceMemoHook(nil)
	for i, f := range figs {
		if alone := runFigure[any](t, f); !reflect.DeepEqual(res[i].Value, alone) {
			t.Errorf("%s: value %+v run with the others, %+v alone", f.Name, res[i].Value, alone)
		}
	}
}

// TestTraceLifetimeBatchClose: an engine batch pins its items' workloads
// like a plan. A workload's traces outlive its answered item while another
// item of the batch still needs them, and go when the batch is closed with
// that item never answered — a fleet task that failed before it reached
// the engine.
func TestTraceLifetimeBatchClose(t *testing.T) {
	w, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	watch := watchMemos(t)
	eng := &campaign.Engine{Workers: 1, Resume: true}
	var items []campaign.Item
	for _, scheme := range []string{"icount", "cdprf"} {
		items = append(items, campaign.Item{Spec: experiments.Spec{Workload: w, Scheme: scheme, IQSize: 32, SingleThread: -1}, TraceLen: 1000})
	}
	b := eng.Batch(items)
	if _, executed, err := b.Simulate(context.Background(), 0); err != nil || !executed {
		t.Fatalf("executed=%v, err=%v; want a fresh simulation", executed, err)
	}
	if n := watch.leftover(); n != len(w.Threads) {
		t.Errorf("%d traces memoized while an item of the batch is pending, want %d", n, len(w.Threads))
	}
	b.Close()
	if n := watch.leftover(); n != 0 {
		t.Errorf("%d traces memoized after the batch was closed", n)
	}
}
