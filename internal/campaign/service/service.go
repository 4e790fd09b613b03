// Package service embeds the campaign engine in a long-running daemon: a
// job queue and a bounded, shared worker pool behind a small HTTP API
// (POST/GET/DELETE /v1/campaigns, see Handler). It is the multi-tenant
// counterpart of the one-shot `expdriver -manifest` run: submissions are
// validated with the same strict manifest rules before they enqueue, every
// job runs through one shared campaign.Engine — so concurrent and repeated
// submissions deduplicate simulations through the layered result store and
// the runners' singleflight tables exactly as -resume does across
// processes — and a running campaign can be cancelled, which propagates
// context cancellation down into the simulation loop.
package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/core"
	"clustersmt/internal/experiments"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: Queued -> Running -> one of Done / Failed / Canceled.
// Canceled wins over Failed when a DELETE raced the natural completion.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config sizes a Service.
type Config struct {
	// Store is the persistent result layer shared by every job (typically
	// *store.Store; nil keeps results in memory only).
	Store experiments.ResultStore
	// Workers bounds total concurrent simulations across ALL jobs —
	// concurrent campaigns share this budget through one gate rather than
	// each bringing its own pool (0 = NumCPU).
	Workers int
	// JobWorkers bounds concurrently executing campaigns (0 = 2). Queued
	// jobs beyond it wait in submission order.
	JobWorkers int
	// MaxQueue bounds jobs admitted but not yet started — jobs waiting for
	// a free job worker (0 = 256). Submissions beyond it are rejected with
	// an error rather than queued unboundedly; running jobs do not count
	// against it.
	MaxQueue int
	// MaxFinished bounds retained terminal jobs (0 = 512). Beyond it the
	// oldest finished jobs are evicted — their status and results become
	// 404s, but their simulation results stay in the persistent store, so
	// resubmitting the same manifest recalls them instantly.
	MaxFinished int
	// Verbose, when set, receives one line per completed simulation.
	Verbose func(string)
	// SampleInterval is the time-series observation window in cycles for
	// every simulation the daemon runs (0 = the core default, 8192; < 0
	// disables sampling). Samples feed the per-job SSE event stream and
	// the /metrics throughput gauge; store hits carry no samples.
	SampleInterval int64
	// EventBuffer sizes each job's bounded event ring (0 = 1024). A slow
	// or absent SSE consumer costs at most this many retained events per
	// job; older events are dropped, and the stream marks the gap.
	EventBuffer int
	// Fleet, when set, turns the daemon into a fleet coordinator: the
	// engine still runs every job and answers store hits itself, but sends
	// each simulation its store cannot answer to the coordinator's dispatch
	// queue (remote workers lease tasks over the fleet routes, which
	// Handler mounts) instead of simulating in-process. Store should be the
	// same store handed to the coordinator, so the fleet's shared cache and
	// the daemon's result history are one; nil Store uses the
	// coordinator's. Nil Fleet keeps the default single-process mode. Fleet
	// jobs carry no per-item time series (workers do not stream samples).
	Fleet *fleet.Coordinator
}

// ItemStatus is one expanded item's live progress view.
type ItemStatus struct {
	Label string `json:"label"`
	State State  `json:"state"` // queued | running | done | failed
	// Cached marks a done item answered by the store (or by another job's
	// in-flight execution) rather than simulated by this job.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// JobStatus is the wire form of a job's progress, served by GET
// /v1/campaigns/{id}.
type JobStatus struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	State    State  `json:"state"`
	Total    int    `json:"total"`
	// Per-item phase tally; Queued+Running+Done+Failed == Total.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Executed vs StoreHits split the Done count by provenance: fresh
	// simulations this job ran vs results the shared store answered.
	Executed  int          `json:"executed"`
	StoreHits int          `json:"store_hits"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Error     string       `json:"error,omitempty"`
	Items     []ItemStatus `json:"items,omitempty"`
}

// job is the service-side record of one submission.
type job struct {
	id       string
	manifest *campaign.Manifest

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	items     []ItemStatus
	executed  int
	storeHits int
	failed    int
	doneCount int
	rs        *campaign.ResultSet
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      chan struct{} // closed on terminal state

	// events is the job's bounded observability stream (see events.go).
	// It has its own lock; the only ordering rule is that j.mu is never
	// acquired while holding events.mu.
	events *eventLog
}

// Service runs campaign jobs submitted over HTTP on a shared engine.
// Create one with New and expose Handler; Close drains it.
type Service struct {
	eng   *campaign.Engine
	fleet *fleet.Coordinator
	met   svcMetrics

	maxFinished int
	eventBuffer int

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	nextID  int
	running int
	closed  bool

	queue chan *job
	wg    sync.WaitGroup
}

// New starts a service: JobWorkers goroutines consuming the job queue, all
// executing on one shared campaign.Engine whose local simulation
// concurrency is gated at Workers machine-wide.
func New(cfg Config) *Service {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	jobWorkers := cfg.JobWorkers
	if jobWorkers <= 0 {
		jobWorkers = 2
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 256
	}
	maxFinished := cfg.MaxFinished
	if maxFinished <= 0 {
		maxFinished = 512
	}
	eventBuffer := cfg.EventBuffer
	if eventBuffer <= 0 {
		eventBuffer = 1024
	}
	sample := cfg.SampleInterval
	switch {
	case sample < 0:
		sample = 0 // disabled
	case sample == 0:
		sample = core.DefaultSampleInterval
	}
	eng := &campaign.Engine{
		Store:          cfg.Store,
		Resume:         true,
		Workers:        workers,
		Verbose:        cfg.Verbose,
		SampleInterval: sample,
	}
	if cfg.Fleet != nil {
		eng.Exec = cfg.Fleet.Execute
		if eng.Store == nil {
			eng.Store = cfg.Fleet.Store()
		}
	}
	s := &Service{
		eng:         eng,
		fleet:       cfg.Fleet,
		maxFinished: maxFinished,
		eventBuffer: eventBuffer,
		jobs:        make(map[string]*job),
		queue:       make(chan *job, maxQueue),
	}
	for i := 0; i < jobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting submissions, cancels every unfinished job, ends the
// fleet coordinator's held lease requests (in fleet mode) and waits for the
// workers to drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	if s.fleet != nil {
		s.fleet.Close()
	}
	close(s.queue)
	s.wg.Wait()
}

// Submit validates and enqueues a manifest, returning the job's initial
// status. The manifest must already have passed campaign.Parse; Submit
// re-expands it so an invalid axis combination is rejected here, before
// anything enqueues.
func (s *Service) Submit(m *campaign.Manifest) (*JobStatus, error) {
	items, err := m.Expand()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		manifest:  m,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		items:     make([]ItemStatus, len(items)),
		submitted: time.Now(),
		done:      make(chan struct{}),
		events:    newEventLog(s.eventBuffer),
	}
	for i, it := range items {
		j.items[i] = ItemStatus{Label: it.Label(), State: StateQueued}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("service: shutting down")
	}
	s.nextID++
	j.id = fmt.Sprintf("c%06d", s.nextID)
	if m.Name == "" {
		m.Name = j.id
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("service: job queue full (%d pending)", cap(s.queue))
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	return j.status(false), nil
}

// Status returns a job's progress; items requests the per-item breakdown.
func (s *Service) Status(id string, items bool) (*JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.status(items), true
}

// List returns every job's status in submission order.
func (s *Service) List() []*JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]*JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Status(id, false); ok {
			out = append(out, st)
		}
	}
	return out
}

// Cancel requests cancellation of a job. Queued jobs are marked canceled
// immediately; running jobs stop at the next context poll inside the
// simulation loop. Cancelling a finished job is a no-op. The second return
// reports whether the id exists.
func (s *Service) Cancel(id string) (*JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.cancel()
	j.mu.Lock()
	if j.state == StateQueued {
		j.finish(StateCanceled, nil, "canceled before start")
	}
	j.mu.Unlock()
	return j.status(false), true
}

// Results returns a finished job's ResultSet. The bool returns are
// (job exists, job finished).
func (s *Service) Results(id string) (*campaign.ResultSet, bool, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished() {
		return nil, true, false
	}
	return j.rs, true, true
}

// Wait blocks until the job reaches a terminal state (or the context
// expires) and returns its final status.
func (s *Service) Wait(ctx context.Context, id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
		return j.status(false), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// prune evicts the oldest finished jobs beyond the retention cap, so a
// long-running daemon's memory does not grow with its submission history.
// Evicted jobs 404; their simulation results remain in the persistent
// store. Callers must not hold s.mu.
func (s *Service) prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var finished []string
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		fin := j.state.Finished()
		j.mu.Unlock()
		if fin {
			finished = append(finished, id)
		}
	}
	excess := len(finished) - s.maxFinished
	if excess <= 0 {
		return
	}
	evict := make(map[string]bool, excess)
	for _, id := range finished[:excess] {
		evict[id] = true
		delete(s.jobs, id)
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if !evict[id] {
			keep = append(keep, id)
		}
	}
	s.order = keep
}

// worker consumes the job queue until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		if j.begin() {
			//smtlint:allow detcheck: queue delivery order picks when a job runs, not its rows, which depend on its manifest alone
			rs, err := s.eng.RunCtx(j.ctx, j.manifest, func(ev campaign.ItemEvent) {
				s.met.onItem(ev)
				j.onEvent(ev)
				j.publish(ev)
			})
			j.end(rs, err)
		}
		s.mu.Lock()
		s.running--
		idle := s.running == 0
		s.mu.Unlock()
		s.prune()
		// When the daemon goes idle, drop the engine's in-memory caches
		// (trace memos, shared MemStore, runner tables): memory stays
		// bounded by one busy period, and the persistent store still
		// answers resubmissions. Without a persistent store the memory
		// layer IS the result history, so it is kept.
		if idle && s.eng.Store != nil {
			s.eng.Recycle()
		}
	}
}

// begin moves a dequeued job to running. It reports false for a job
// canceled while it waited in the queue.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// end records the engine's outcome for j.
func (j *job) end(rs *campaign.ResultSet, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.ctx.Err() != nil:
		j.finish(StateCanceled, rs, "canceled")
	case err != nil:
		j.finish(StateFailed, rs, err.Error())
	case rs.Failed > 0:
		j.finish(StateFailed, rs, fmt.Sprintf("%d of %d items failed", rs.Failed, rs.Total))
	default:
		j.finish(StateDone, rs, "")
	}
}

// onEvent folds engine progress events into the job's live status. It runs
// on the engine's worker goroutines.
func (j *job) onEvent(ev campaign.ItemEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if ev.Index < 0 || ev.Index >= len(j.items) {
		return
	}
	it := &j.items[ev.Index]
	switch {
	case ev.Started:
		it.State = StateRunning
	case ev.Result != nil:
		j.doneCount++
		if ev.Result.Error != "" {
			it.State = StateFailed
			it.Error = ev.Result.Error
			j.failed++
		} else {
			it.State = StateDone
			it.Cached = ev.Result.Cached
			if ev.Result.Cached {
				j.storeHits++
			} else {
				j.executed++
			}
		}
	}
}

// finish moves the job to a terminal state. Callers hold j.mu. When the
// engine returned a ResultSet its tallies are authoritative (they include
// the fairness pass); the event counters already match for the plain
// fields.
func (j *job) finish(state State, rs *campaign.ResultSet, errMsg string) {
	if j.state.Finished() {
		return
	}
	j.state = state
	j.rs = rs
	j.err = errMsg
	j.finished = time.Now()
	close(j.done)
	// Publish the terminal event and complete the stream; SSE readers see
	// a final "state" frame and then the server closes the connection.
	// Safe under j.mu: the event log has its own lock and never takes j.mu.
	j.events.add(Event{Type: "state", Index: -1, State: state, Error: errMsg})
	j.events.close()
}

// status snapshots the job for the API.
func (j *job) status(withItems bool) *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:        j.id,
		Campaign:  j.manifest.Name,
		State:     j.state,
		Total:     len(j.items),
		Running:   0,
		Done:      j.doneCount - j.failed,
		Failed:    j.failed,
		Executed:  j.executed,
		StoreHits: j.storeHits,
		Submitted: j.submitted,
		Error:     j.err,
	}
	for i := range j.items {
		switch j.items[i].State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if withItems {
		st.Items = append([]ItemStatus(nil), j.items...)
	}
	return st
}
