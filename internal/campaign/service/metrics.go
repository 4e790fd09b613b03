package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/campaign"
)

// svcMetrics is the daemon's process-lifetime instrumentation, exposed in
// Prometheus text form by GET /metrics. Counters are updated from engine
// progress callbacks (hot path: one atomic add per event); the cycles/s
// gauge is derived at scrape time from the cycle counter's delta since the
// previous scrape.
type svcMetrics struct {
	executed  atomic.Int64 // fresh simulations completed
	storeHits atomic.Int64 // items answered by the store / singleflight
	failed    atomic.Int64 // items that completed with an error
	cycles    atomic.Int64 // simulated cycles, summed from sample windows

	mu         sync.Mutex
	lastScrape time.Time
	lastCycles int64
}

// onItem folds one engine progress event into the counters.
func (m *svcMetrics) onItem(ev campaign.ItemEvent) {
	switch {
	case ev.Sample != nil:
		m.cycles.Add(ev.Sample.Window)
	case ev.Result != nil:
		switch {
		case ev.Result.Error != "":
			m.failed.Add(1)
		case ev.Result.Cached:
			m.storeHits.Add(1)
		default:
			m.executed.Add(1)
		}
	}
}

// cyclesPerSecond returns the mean simulated-cycle rate since the previous
// scrape (0 on the first scrape, when there is no interval to rate over).
func (m *svcMetrics) cyclesPerSecond(now time.Time) float64 {
	cur := m.cycles.Load()
	m.mu.Lock()
	defer m.mu.Unlock()
	var rate float64
	if !m.lastScrape.IsZero() {
		if dt := now.Sub(m.lastScrape).Seconds(); dt > 0 {
			rate = float64(cur-m.lastCycles) / dt
		}
	}
	m.lastScrape = now
	m.lastCycles = cur
	return rate
}

// handleMetrics serves the daemon's operational metrics in the Prometheus
// text exposition format (version 0.0.4): jobs by state, queue depth,
// in-flight simulations against the shared gate, lifetime item counters,
// simulation throughput, the engine's failed store writes, and in fleet
// mode the coordinator's worker and dispatch-queue counters.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0,
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		states[j.state]++
		j.mu.Unlock()
	}
	queueDepth := len(s.queue)
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	fmt.Fprintf(w, "# HELP clustersmt_jobs Campaign jobs currently retained, by lifecycle state.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_jobs gauge\n")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(w, "clustersmt_jobs{state=%q} %d\n", st, states[st])
	}
	ms := []promMetric{
		{"clustersmt_job_queue_depth", "gauge", "Jobs admitted but not yet picked up by a job worker.", queueDepth},
		{"clustersmt_sims_inflight", "gauge", "Simulations currently holding a slot of the shared worker gate.", s.eng.Inflight()},
		{"clustersmt_sims_executed_total", "counter", "Fresh simulations completed since the daemon started.", s.met.executed.Load()},
		{"clustersmt_store_hits_total", "counter", "Items answered by the result store or another job's in-flight execution.", s.met.storeHits.Load()},
		{"clustersmt_items_failed_total", "counter", "Items that completed with an error.", s.met.failed.Load()},
		{"clustersmt_sim_cycles_total", "counter", "Simulated machine cycles observed through sampling windows.", s.met.cycles.Load()},
		{"clustersmt_sim_cycles_per_second", "gauge", "Mean simulated-cycle rate since the previous scrape.", s.met.cyclesPerSecond(time.Now())},
		{"clustersmt_store_put_errors_total", "counter", "Fresh results the daemon failed to write into its result store.", s.eng.StorePutErrors()},
	}
	if s.fleet != nil {
		st := s.fleet.Status()
		q := st.Queue
		ms = append(ms, []promMetric{
			{"clustersmt_fleet_workers", "gauge", "Registered fleet workers.", len(st.Workers)},
			{"clustersmt_fleet_tasks_pending", "gauge", "Fleet tasks waiting to be leased, including those backing off after a failed attempt.", q.Pending},
			{"clustersmt_fleet_tasks_leased", "gauge", "Fleet tasks currently leased to a worker.", q.Leased},
			{"clustersmt_fleet_leases_held", "gauge", "Worker lease requests currently held open waiting for work.", q.Held},
			{"clustersmt_fleet_tasks_done_total", "counter", "Fleet tasks completed successfully.", q.Done},
			{"clustersmt_fleet_tasks_poisoned_total", "counter", "Fleet tasks that exhausted their attempts.", q.Poisoned},
			{"clustersmt_fleet_requeues_total", "counter", "Returns to pending: failed attempts and the leases of reaped workers.", q.Requeues},
			{"clustersmt_fleet_lease_expirations_total", "counter", "Leases reclaimed from reaped workers.", q.Expirations},
			{"clustersmt_fleet_duplicate_completions_total", "counter", "Rejected stale or duplicate completion reports.", q.Duplicates},
		}...)
	}
	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", m.name, m.help, m.name, m.typ, m.name, m.v)
	}
}

// promMetric is one unlabelled series of a scrape: its HELP and TYPE lines
// and its value, an integer or a float64 (written as %g).
type promMetric struct {
	name, typ, help string
	v               any
}
