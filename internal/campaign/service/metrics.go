package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/campaign"
	"clustersmt/internal/campaign/fleet"
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
	fmt.Fprintf(w, "# HELP clustersmt_job_queue_depth Jobs admitted but not yet picked up by a job worker.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_job_queue_depth gauge\n")
	fmt.Fprintf(w, "clustersmt_job_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP clustersmt_sims_inflight Simulations currently holding a slot of the shared worker gate.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sims_inflight gauge\n")
	fmt.Fprintf(w, "clustersmt_sims_inflight %d\n", s.eng.Inflight())
	fmt.Fprintf(w, "# HELP clustersmt_sims_executed_total Fresh simulations completed since the daemon started.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sims_executed_total counter\n")
	fmt.Fprintf(w, "clustersmt_sims_executed_total %d\n", s.met.executed.Load())
	fmt.Fprintf(w, "# HELP clustersmt_store_hits_total Items answered by the result store or another job's in-flight execution.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_store_hits_total counter\n")
	fmt.Fprintf(w, "clustersmt_store_hits_total %d\n", s.met.storeHits.Load())
	fmt.Fprintf(w, "# HELP clustersmt_items_failed_total Items that completed with an error.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_items_failed_total counter\n")
	fmt.Fprintf(w, "clustersmt_items_failed_total %d\n", s.met.failed.Load())
	fmt.Fprintf(w, "# HELP clustersmt_sim_cycles_total Simulated machine cycles observed through sampling windows.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sim_cycles_total counter\n")
	fmt.Fprintf(w, "clustersmt_sim_cycles_total %d\n", s.met.cycles.Load())
	fmt.Fprintf(w, "# HELP clustersmt_sim_cycles_per_second Mean simulated-cycle rate since the previous scrape.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_sim_cycles_per_second gauge\n")
	fmt.Fprintf(w, "clustersmt_sim_cycles_per_second %g\n", s.met.cyclesPerSecond(time.Now()))
	fmt.Fprintf(w, "# HELP clustersmt_store_put_errors_total Fresh results the daemon failed to write into its result store.\n")
	fmt.Fprintf(w, "# TYPE clustersmt_store_put_errors_total counter\n")
	fmt.Fprintf(w, "clustersmt_store_put_errors_total %d\n", s.eng.StorePutErrors())
	if s.fleet != nil {
		writeFleetMetrics(w, s.fleet.Status())
	}
}

// writeFleetMetrics appends the coordinator's registry and dispatch-queue
// counters to a scrape (fleet mode only).
func writeFleetMetrics(w http.ResponseWriter, st fleet.Status) {
	q := st.Queue
	for _, m := range []struct {
		name, typ, help string
		v               int64
	}{
		{"clustersmt_fleet_workers", "gauge", "Registered fleet workers.", int64(len(st.Workers))},
		{"clustersmt_fleet_tasks_pending", "gauge", "Fleet tasks waiting to be leased, including those backing off after a failed attempt.", int64(q.Pending)},
		{"clustersmt_fleet_tasks_leased", "gauge", "Fleet tasks currently leased to a worker.", int64(q.Leased)},
		{"clustersmt_fleet_leases_held", "gauge", "Worker lease requests currently held open waiting for work.", int64(q.Held)},
		{"clustersmt_fleet_tasks_done_total", "counter", "Fleet tasks completed successfully.", q.Done},
		{"clustersmt_fleet_tasks_poisoned_total", "counter", "Fleet tasks that exhausted their attempts.", q.Poisoned},
		{"clustersmt_fleet_requeues_total", "counter", "Returns to pending: failed attempts, expired leases and lost workers.", q.Requeues},
		{"clustersmt_fleet_lease_expirations_total", "counter", "Leases reclaimed by timeout or worker loss.", q.Expirations},
		{"clustersmt_fleet_duplicate_completions_total", "counter", "Rejected stale or duplicate completion reports.", q.Duplicates},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		fmt.Fprintf(w, "%s %d\n", m.name, m.v)
	}
}
