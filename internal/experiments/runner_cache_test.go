package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"clustersmt/internal/campaign/store"
	"clustersmt/internal/metrics"
	"clustersmt/internal/trace"
	"clustersmt/internal/workload"
)

// TestRunnerSingleflight pins the duplicate-execution fix: N goroutines
// racing on a cold cache key must share one execution, observable both as
// one Verbose completion and as every caller receiving the same *Stats.
func TestRunnerSingleflight(t *testing.T) {
	r := NewRunner(1500)
	var executed int32
	r.Verbose = func(string) { atomic.AddInt32(&executed, 1) }
	w := workload.ByCategory("ispec00")[0]
	spec := iqStudySpec(w, "icount", 32)

	const racers = 16
	results := make([]*metrics.Stats, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := r.Run(spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if results[i] != results[0] {
			t.Fatalf("racer %d got a different Stats object: duplicate execution", i)
		}
	}
	if executed != 1 {
		t.Errorf("spec executed %d times under race, want 1", executed)
	}
}

// TestRunnerTraceMemoized asserts trace sharing across specs: the same
// workload thread must hand every run (SMT and single-thread alike) the
// same materialized slice, and different lengths or threads must not
// collide.
func TestRunnerTraceMemoized(t *testing.T) {
	r := NewRunner(1500)
	w := workload.ByCategory("ispec00")[0]

	a := r.traceFor(w, 0)
	b := r.traceFor(w, 0)
	if &a[0] != &b[0] {
		t.Error("same (workload, thread, length) regenerated its trace")
	}
	c := r.traceFor(w, 1)
	if &a[0] == &c[0] {
		t.Error("distinct threads share one trace entry")
	}

	// The SMT run and the single-thread fairness baseline see one slice.
	smt := r.buildPrograms(w, -1)
	solo := r.buildPrograms(w, 1)
	if &smt[1].Trace[0] != &solo[0].Trace[0] {
		t.Error("single-thread run regenerated the SMT thread's trace")
	}

	r2 := NewRunner(2000)
	d := r2.traceFor(w, 0)
	if len(d) != 2000 || len(a) != 1500 {
		t.Fatalf("trace lengths %d/%d, want 2000/1500", len(d), len(a))
	}
}

// TestRunnerTraceKeyedBySeedAndProfile pins the memoization bugfix: a
// hand-built Workload that reuses a pool name with different seeds or a
// different profile must NOT receive the named workload's cached trace.
func TestRunnerTraceKeyedBySeedAndProfile(t *testing.T) {
	r := NewRunner(1500)
	w := workload.ByCategory("ispec00")[0]
	orig := r.traceFor(w, 0)

	reseeded := w
	reseeded.Seeds = []uint64{w.Seeds[0] + 1, w.Seeds[1]}
	if got := r.traceFor(reseeded, 0); &got[0] == &orig[0] {
		t.Error("same name with a different seed was handed the cached trace")
	}

	reprofiled := w
	reprofiled.Threads = append([]trace.Profile{}, w.Threads...)
	reprofiled.Threads[0].DepP = w.Threads[0].DepP / 2
	if got := r.traceFor(reprofiled, 0); &got[0] == &orig[0] {
		t.Error("same name with a different profile was handed the cached trace")
	}

	// And the converse: an identical (profile, seed, length) under a new
	// name still shares — the cache keys content, not names.
	renamed := w
	renamed.Name = w.Name + "-alias"
	if got := r.traceFor(renamed, 0); &got[0] != &orig[0] {
		t.Error("identical seed/profile under a new name regenerated the trace")
	}
}

// TestRunnerSpecKeyedByWorkloadContent extends the aliasing rule to the
// runner's session maps: a hand-built Workload reusing a pool name with
// different seeds must not recall the pool workload's memoized cache key
// or result.
func TestRunnerSpecKeyedByWorkloadContent(t *testing.T) {
	r := NewRunner(1200)
	w := workload.ByCategory("ispec00")[0]
	spec := iqStudySpec(w, "icount", 32)
	a, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	alias := w
	alias.Seeds = []uint64{w.Seeds[0] + 1, w.Seeds[1] + 1}
	aliasSpec := iqStudySpec(alias, "icount", 32)
	if r.CacheKey(spec) == r.CacheKey(aliasSpec) {
		t.Error("same-name workload with different seeds shares a content key")
	}
	b, err := r.Run(aliasSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("same-name workload with different seeds recalled the cached result")
	}
}

// TestRunnerShapeChangesCacheKey: machine-shape spec fields must reach the
// canonical config, giving every swept shape its own content-addressed key,
// while the zero shape keeps the legacy key.
func TestRunnerShapeChangesCacheKey(t *testing.T) {
	r := NewRunner(1500)
	w := workload.ByCategory("ispec00")[0]
	base := iqStudySpec(w, "icount", 32)
	seen := map[string]string{r.CacheKey(base): "zero shape"}
	muts := []struct {
		name string
		mut  func(*Spec)
	}{
		{"clusters", func(s *Spec) { s.NumClusters = 3 }},
		{"links", func(s *Spec) { s.Links = 1 }},
		{"link latency", func(s *Spec) { s.LinkLatency = 4 }},
		{"mem latency", func(s *Spec) { s.MemLatency = 300 }},
	}
	for _, m := range muts {
		s := base
		m.mut(&s)
		k := r.CacheKey(s)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares a cache key with %s", m.name, prev)
		}
		seen[k] = m.name
	}
	// Explicit Table 1 values hash identically to the zero shape.
	explicit := base
	explicit.NumClusters, explicit.Links, explicit.LinkLatency, explicit.MemLatency = 2, 2, 1, 60
	if r.CacheKey(explicit) != r.CacheKey(base) {
		t.Error("explicit Table 1 shape produced a different key than the zero shape")
	}
}

// TestRunnerZeroValueUsable guards the lazy map initialization: a Runner
// built as a struct literal (no NewRunner) must still memoize safely.
func TestRunnerZeroValueUsable(t *testing.T) {
	r := &Runner{TraceLen: 1200, MaxCycles: 1200 * 40}
	w := workload.ByCategory("ispec00")[0]
	spec := iqStudySpec(w, "icount", 32)
	a, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero-value runner failed to memoize")
	}
}

// parkFirstGet parks the first Get after its lookup until release closes,
// so a test can hold one caller between its store miss and r.mu.
type parkFirstGet struct {
	ResultStore
	first           atomic.Bool
	parked, release chan struct{}
}

func (p *parkFirstGet) Get(key string) (*metrics.Stats, bool, error) {
	st, ok, err := p.ResultStore.Get(key)
	if p.first.CompareAndSwap(false, true) {
		close(p.parked)
		<-p.release
	}
	return st, ok, err
}

// TestStoreMissRecheckedUnderLock pins the window the unlocked store read
// opens: a caller whose Get missed, but which reaches r.mu only after the
// owner has Put and deleted its flight, must find the stored result rather
// than simulate the spec a second time.
func TestStoreMissRecheckedUnderLock(t *testing.T) {
	r := NewRunner(1200)
	store := &parkFirstGet{ResultStore: NewMemStore(), parked: make(chan struct{}), release: make(chan struct{})}
	r.Store = store
	spec := iqStudySpec(workload.ByCategory("ispec00")[0], "icount", 32)

	type outcome struct {
		st       *metrics.Stats
		executed bool
		err      error
	}
	waiter := make(chan outcome, 1)
	go func() {
		st, executed, err := r.run(context.Background(), spec, nil)
		waiter <- outcome{st, executed, err}
	}()
	<-store.parked

	owned, executed, err := r.run(context.Background(), spec, nil)
	if err != nil || !executed {
		t.Fatalf("owner: executed=%v err=%v, want a fresh run", executed, err)
	}
	close(store.release)
	w := <-waiter
	if w.err != nil || w.executed || w.st != owned {
		t.Errorf("waiter: (%p, executed=%v, %v), want the owner's stored %p as a hit", w.st, w.executed, w.err, owned)
	}
	if n := r.Executed(); n != 1 {
		t.Errorf("Executed() = %d, want 1", n)
	}
}

// TestProfileFingerprintCoversEveryField perturbs each trace.Profile field
// alone and requires the fingerprint to change. A field of a kind this
// test cannot perturb fails it, so a new slice or map field cannot alias
// traces or flights unnoticed.
func TestProfileFingerprintCoversEveryField(t *testing.T) {
	base := workload.ByCategory("ispec00")[0].Threads[0]
	want := profileFingerprint(base)
	typ := reflect.TypeOf(trace.Profile{})
	for i := 0; i < typ.NumField(); i++ {
		p := base
		f := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 0.125)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("trace.Profile.%s has kind %s, which profileFingerprint does not digest", typ.Field(i).Name, f.Kind())
		}
		if profileFingerprint(p) == want {
			t.Errorf("changing trace.Profile.%s left the fingerprint unchanged", typ.Field(i).Name)
		}
	}
}

// failingPut is a store that never keeps anything.
type failingPut struct{ ResultStore }

func (failingPut) Put(string, *metrics.Stats) error { return errors.New("disk full") }

// TestStorePutErrorsCounted: a result the store refuses still reaches the
// caller, and each refusal is counted once.
func TestStorePutErrorsCounted(t *testing.T) {
	r := NewRunner(1200)
	r.Store = failingPut{NewMemStore()}
	spec := iqStudySpec(workload.ByCategory("ispec00")[0], "icount", 32)
	for want := int64(1); want <= 2; want++ {
		st, err := r.Run(spec)
		if err != nil || st == nil {
			t.Fatalf("run %d: (%v, %v), want a result despite the failed put", want, st, err)
		}
		if got := r.StorePutErrors(); got != want {
			t.Errorf("after run %d: StorePutErrors() = %d, want %d", want, got, want)
		}
	}
}

// BenchmarkRunnerWarmHits times a fresh runner answering a whole sweep
// from a filled Layered(memory, disk) store, the resubmit path, with two
// workers. Nothing may simulate.
func BenchmarkRunnerWarmHits(b *testing.B) {
	var specs []Spec
	for _, w := range workload.Pool()[:60] {
		for _, scheme := range []string{"icount", "stall", "flush+", "cisp", "cssp", "cdprf"} {
			specs = append(specs, iqStudySpec(w, scheme, 32))
		}
	}
	disk, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keyer := NewRunner(2000)
	st := metrics.NewStats(2, 2)
	st.Cycles, st.Committed[0], st.Committed[1] = 5000, 2000, 1800
	for _, s := range specs {
		if err := disk.Put(keyer.CacheKey(s), st); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(2000)
		r.Workers = 2
		r.Store = Layered(NewMemStore(), disk)
		if _, err := r.RunAllCtx(context.Background(), specs, nil); err != nil {
			b.Fatal(err)
		}
		if n := r.Executed(); n != 0 {
			b.Fatalf("%d of %d warm items simulated", n, len(specs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(specs)), "us/item")
}
