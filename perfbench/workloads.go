package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/campaign/service"
	"clustersmt/internal/campaign/store"
	"clustersmt/internal/experiments"
	"clustersmt/internal/workload"
)

// sizes scales the three workloads. fullSizes is the benchmark proper;
// smallSizes keeps the benchmark's own tests fast.
type sizes struct {
	coldCategories int // cold-sweep: one pool workload per category
	coldTraceLen   int
	warmWorkloads  int // warm-resubmit: pool workloads in the manifest
	warmTraceLen   int
	fleetSample    int // fleet-mixed: pool workloads per submission
	fleetTraceLen  int // first submission's trace length; submission i adds i
	fleetPlanned   int // submissions set-up prepares, warm-up included
}

var fullSizes = sizes{
	coldCategories: len(workload.Categories), coldTraceLen: 20000,
	warmWorkloads: 120, warmTraceLen: 2000,
	fleetSample: 8, fleetTraceLen: 4000, fleetPlanned: 25,
}

var smallSizes = sizes{
	coldCategories: 2, coldTraceLen: 1000,
	warmWorkloads: 4, warmTraceLen: 1000,
	fleetSample: 2, fleetTraceLen: 1000, fleetPlanned: 6,
}

// simWorkers is the simulation parallelism every workload runs with: the
// benchmark host has two CPUs.
const simWorkers = 2

var (
	coldSchemes  = []string{"icount", "flush+", "cssp", "cdprf", "dcra", "hillclimb"}
	warmSchemes  = []string{"icount", "stall", "flush+", "cisp", "cssp", "cdprf"}
	fleetStored  = []string{"icount", "cdprf"}
	fleetSchemes = []string{"icount", "cdprf", "flush+", "cssp"}
)

// table4 returns a manifest on the Table 4 machine: 32-entry IQs, 64
// registers per kind per cluster, 128-entry per-thread ROBs.
func table4(name string, workloads, schemes []string, traceLen int) []byte {
	b, err := json.Marshal(campaign.Manifest{
		Name:           name,
		Workloads:      workloads,
		Schemes:        schemes,
		IQSizes:        []int{32},
		RegsPerCluster: []int{64},
		ROBPerThread:   []int{128},
		TraceLens:      []int{traceLen},
	})
	if err != nil {
		panic(err) // a Manifest of strings and ints always encodes
	}
	return b
}

// drawCold picks one pool workload per category for cold-sweep
// submission i: the i-th entry of a seeded shuffle of each category. The
// submissions of a run therefore walk through every category without
// repeating a workload until the category is exhausted, which keeps a run's
// total work close to the pool average whatever the seed.
func drawCold(seed uint64, i, n int) []string {
	rng := rand.New(rand.NewPCG(seed, 1))
	var names []string
	for _, cat := range workload.Categories[:n] {
		ws := workload.ByCategory(cat)
		perm := rng.Perm(len(ws))
		names = append(names, ws[perm[i%len(ws)]].Name)
	}
	return names
}

// drawPool returns n distinct pool workloads in a seeded order.
func drawPool(seed, stream uint64, n int) []string {
	rng := rand.New(rand.NewPCG(seed, stream))
	pool := workload.Pool()
	var names []string
	for _, i := range rng.Perm(len(pool))[:n] {
		names = append(names, pool[i].Name)
	}
	return names
}

// fleetSample is submission i's fresh draw for fleet-mixed and its trace
// length. Each submission runs at its own trace length so its keys are new
// to the fleet: its flush+/cssp half is never stored, in any layer, before
// the submission executes it. Workers keep a runner, and its trace memo,
// per trace length, so their memory grows with every submission; a run
// therefore makes a fixed number of submissions (fleetPlanned), and peak
// RSS does not depend on how fast they go.
func fleetSample(seed uint64, sz sizes, i int) ([]string, int) {
	return drawPool(seed, 100+uint64(i), sz.fleetSample), sz.fleetTraceLen + i
}

// env is what a workload's set-up gets: its scratch directory, the probe
// its decorators report to, and the benchmark options.
type env struct {
	dir   string
	probe *probe
	opts  *options
}

// system is one set-up workload: submit drives submission i (0 is the
// untimed warm-up) through the workload's public entry point.
type system interface {
	manifest(i int) []byte
	submit(ctx context.Context, i int, obs *subObs) (*campaign.ResultSet, error)
	// storeFor returns the store submission i's results live in.
	storeFor(i int) experiments.ResultStore
	// stored reports whether a row must come from the store rather than
	// from a fresh simulation.
	stored(r campaign.Result) bool
	// capacity is the number of submissions the set-up prepared (0 = no
	// limit).
	capacity() int
	close() error
}

// workloadDef names a workload and builds its system.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, e env) (system, error)
}

var workloads = []workloadDef{
	{"cold-sweep", setupCold},
	{"warm-resubmit", setupWarm},
	{"fleet-mixed", setupFleet},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (cold-sweep, warm-resubmit, fleet-mixed)", name)
}

// ---- cold-sweep: campaign.Engine over a fresh, empty disk store ----

// Each cold-sweep submission draws its own sample, so a run's latencies
// average over several draws rather than hanging on one.
type coldSystem struct {
	e env

	mu     sync.Mutex
	stores map[int]*store.Store
}

func setupCold(ctx context.Context, e env) (system, error) {
	s := &coldSystem{e: e, stores: map[int]*store.Store{}}
	if err := warmUp(ctx, s); err != nil {
		return nil, fmt.Errorf("cold-sweep warm-up: %w", err)
	}
	return s, nil
}

// coldWarmUpSeed draws cold-sweep's warm-up submission. It is fixed so that
// every set-up simulates the same manifest whatever the run's seed:
// per-workload cost varies about twofold, and a seed-drawn warm-up made
// setup_s follow the draw instead of the code.
const coldWarmUpSeed = defaultSeed

func (s *coldSystem) manifest(i int) []byte {
	sz := s.e.opts.sizes
	seed := s.e.opts.seed
	if i == 0 {
		seed = coldWarmUpSeed
	}
	return table4("cold-sweep", drawCold(seed, i, sz.coldCategories), coldSchemes, sz.coldTraceLen)
}

func (s *coldSystem) submit(ctx context.Context, i int, obs *subObs) (*campaign.ResultSet, error) {
	st, err := store.Open(filepath.Join(s.e.dir, fmt.Sprintf("store-%d", i)))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stores[i] = st
	s.mu.Unlock()
	m, err := campaign.Parse(s.manifest(i))
	if err != nil {
		return nil, err
	}
	eng := &campaign.Engine{Store: &probedStore{inner: st, p: s.e.probe}, Resume: true, Workers: simWorkers}
	var progress func(campaign.ItemEvent)
	if obs != nil {
		progress = func(ev campaign.ItemEvent) {
			if ev.Started || ev.Result != nil {
				obs.itemEvent(ev.Index, ev.Started)
			}
		}
	}
	return eng.RunCtx(ctx, m, progress)
}

func (s *coldSystem) storeFor(i int) experiments.ResultStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stores[i]
}

func (s *coldSystem) stored(campaign.Result) bool { return false }
func (s *coldSystem) capacity() int               { return 0 }
func (s *coldSystem) close() error                { return os.RemoveAll(s.e.dir) }

// ---- warm-resubmit: a local-mode service over a filled disk store ----

type warmSystem struct {
	e   env
	man []byte
	st  *store.Store
	svc *service.Service
	srv *httptest.Server
	cl  *client
}

func setupWarm(ctx context.Context, e env) (system, error) {
	sz := e.opts.sizes
	s := &warmSystem{e: e, man: table4("warm-resubmit", drawPool(e.opts.seed, 2, sz.warmWorkloads), warmSchemes, sz.warmTraceLen)}
	var err error
	if s.st, err = store.Open(filepath.Join(e.dir, "store")); err != nil {
		return nil, err
	}
	if err := seed(ctx, s.st, s.man); err != nil {
		return nil, err
	}
	if e.opts.afterSeed != nil {
		if err := e.opts.afterSeed(s.st); err != nil {
			return nil, err
		}
	}
	// One job worker: the daemon recycles its memory layer before it takes
	// the next job, so every submission reads the disk store. The event ring
	// holds every frame of a submission, so the client never sees a gap.
	s.svc = service.New(service.Config{
		Store:       &probedStore{inner: s.st, p: e.probe},
		Workers:     simWorkers,
		JobWorkers:  1,
		MaxFinished: 4,
		EventBuffer: 2048,
	})
	s.srv = httptest.NewServer(s.svc.Handler())
	s.cl = newClient(s.srv.URL, e.probe)
	if err := warmUp(ctx, s); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-resubmit warm-up: %w", err)
	}
	return s, nil
}

// seed runs a manifest on a local engine into st, which must not yet hold
// any of its results.
func seed(ctx context.Context, st experiments.ResultStore, man []byte) error {
	m, err := campaign.Parse(man)
	if err != nil {
		return err
	}
	eng := &campaign.Engine{Store: st, Resume: true, Workers: simWorkers}
	rs, err := eng.RunCtx(ctx, m, nil)
	if err != nil {
		return err
	}
	if rs.Failed > 0 || rs.Executed != rs.Total {
		return fmt.Errorf("seeding %s: %d executed, %d failed of %d", m.Name, rs.Executed, rs.Failed, rs.Total)
	}
	return nil
}

func (s *warmSystem) manifest(int) []byte { return s.man }

func (s *warmSystem) submit(ctx context.Context, _ int, obs *subObs) (*campaign.ResultSet, error) {
	return s.cl.run(ctx, s.man, obs)
}

func (s *warmSystem) storeFor(int) experiments.ResultStore { return s.st }
func (s *warmSystem) stored(campaign.Result) bool          { return true }
func (s *warmSystem) capacity() int                        { return 0 }

func (s *warmSystem) close() error {
	if s.cl != nil {
		s.cl.close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return os.RemoveAll(s.e.dir)
}

// ---- fleet-mixed: a fleet-mode service with two in-process workers ----

type fleetSystem struct {
	e      env
	st     *store.Store
	svc    *service.Service
	srv    *httptest.Server
	cl     *client
	coord  *fleet.Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wcl    []*http.Client
}

func setupFleet(ctx context.Context, e env) (system, error) {
	sz := e.opts.sizes
	s := &fleetSystem{e: e}
	var err error
	if s.st, err = store.Open(filepath.Join(e.dir, "store")); err != nil {
		return nil, err
	}
	for i := 0; i < sz.fleetPlanned; i++ {
		names, tl := fleetSample(e.opts.seed, sz, i)
		if err := seed(ctx, s.st, table4("fleet-mixed", names, fleetStored, tl)); err != nil {
			return nil, err
		}
	}
	// The shipped coordinator defaults: 250 ms poll, 10 s lease.
	shared := &probedStore{inner: s.st, p: e.probe}
	s.coord = fleet.NewCoordinator(fleet.Config{Store: shared})
	s.svc = service.New(service.Config{Store: shared, Workers: simWorkers, JobWorkers: 1, MaxFinished: 4, Fleet: s.coord})
	s.srv = httptest.NewServer(s.svc.Handler())
	s.cl = newClient(s.srv.URL, e.probe)
	wctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < simWorkers; i++ {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		hc := &http.Client{Transport: &probedTransport{inner: tr, p: e.probe}}
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: s.srv.URL,
			Name:        fmt.Sprintf("bench-%d", i),
			Parallel:    1,
			Client:      hc,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.wcl = append(s.wcl, hc)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(wctx) // returns only once wctx is cancelled
		}()
	}
	if err := warmUp(ctx, s); err != nil {
		s.close()
		return nil, fmt.Errorf("fleet-mixed warm-up: %w", err)
	}
	return s, nil
}

func (s *fleetSystem) manifest(i int) []byte {
	names, tl := fleetSample(s.e.opts.seed, s.e.opts.sizes, i)
	return table4("fleet-mixed", names, fleetSchemes, tl)
}

func (s *fleetSystem) submit(ctx context.Context, i int, obs *subObs) (*campaign.ResultSet, error) {
	return s.cl.run(ctx, s.manifest(i), obs)
}

func (s *fleetSystem) storeFor(int) experiments.ResultStore { return s.st }

func (s *fleetSystem) stored(r campaign.Result) bool {
	for _, sc := range fleetStored {
		if r.Scheme == sc {
			return true
		}
	}
	return false
}

// queueStats snapshots the coordinator's dispatch queue counters.
func (s *fleetSystem) queueStats() fleet.QueueStats { return s.coord.Status().Queue }

func (s *fleetSystem) capacity() int { return s.e.opts.sizes.fleetPlanned }

func (s *fleetSystem) close() error {
	if s.cancel != nil {
		s.cancel()
		s.wg.Wait()
	}
	for _, hc := range s.wcl {
		hc.CloseIdleConnections()
	}
	if s.cl != nil {
		s.cl.close()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	return os.RemoveAll(s.e.dir)
}
