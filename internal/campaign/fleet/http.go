package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
	"clustersmt/internal/report"
)

// maxBodyBytes bounds a worker-API request body. Completions carry one
// Stats document and lease requests a single integer; a megabyte is
// generous.
const maxBodyBytes = 1 << 20

// RegisterRequest is the POST /v1/workers body.
type RegisterRequest struct {
	// Name is a human-readable worker label (hostname, usually); identity
	// comes from the assigned ID, so names need not be unique.
	Name string `json:"name"`
}

// RegisterResponse tells a new worker its identity and cadence contract:
// heartbeat every HeartbeatMs (well inside the lease ttl); a worker none
// of whose calls arrives within LeaseTTLMs is reaped and loses its
// leases. PollMs is the longest the coordinator holds a lease request that
// finds no work; the worker needs no poll timer of its own.
type RegisterResponse struct {
	ID          string `json:"id"`
	LeaseTTLMs  int64  `json:"lease_ttl_ms"`
	HeartbeatMs int64  `json:"heartbeat_ms"`
	PollMs      int64  `json:"poll_ms"`
}

// LeaseRequest is the POST /v1/workers/{id}/lease body.
type LeaseRequest struct {
	// Max bounds the returned batch (0 = 1).
	Max int `json:"max"`
}

// LeaseResponse carries a leased batch, oldest tasks first. The
// coordinator holds a request until work can be leased or poll_ms (see
// RegisterResponse) passes, so an empty Tasks slice means the hold ran
// out: the worker should lease again at once.
type LeaseResponse struct {
	Tasks []Task `json:"tasks"`
}

// CompleteResponse reports whether a completion was accepted; false means
// it was stale or duplicate (the worker was reaped, or another attempt
// superseded it) and the worker's result was discarded.
type CompleteResponse struct {
	Accepted bool `json:"accepted"`
}

// Handler returns the coordinator's HTTP API as a standalone handler (the
// fault-injection tests mount it on httptest servers; the service mounts
// the same routes onto its own mux via Register).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

// Register mounts the fleet API:
//
//	POST /v1/workers                 register; returns id + cadence contract
//	GET  /v1/workers                 registry + queue snapshot (Status)
//	POST /v1/workers/{id}/heartbeat  liveness, as is every call from the worker
//	POST /v1/workers/{id}/lease      pull a task batch (oldest first; held until work or poll_ms)
//	POST /v1/workers/{id}/complete   report one task's outcome (idempotent)
//
// Every route first reaps the workers none of whose calls arrived within
// the lease ttl, requeueing their leases. docs/API.md documents the
// schemas and failure codes; CI cross-checks its route list against these
// registrations.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/workers/{id}/lease", c.handleLease)
	mux.HandleFunc("POST /v1/workers/{id}/complete", c.handleComplete)
}

func fleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	report.WriteJSON(w, v)
}

func fleetErr(w http.ResponseWriter, code int, format string, args ...any) {
	fleetJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody decodes a bounded JSON request body into v ({} for an empty
// body, so bodyless POSTs work).
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	b, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		fleetErr(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(b) > maxBodyBytes {
		fleetErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxBodyBytes)
		return false
	}
	if len(b) == 0 {
		return true
	}
	if err := json.Unmarshal(b, v); err != nil {
		fleetErr(w, http.StatusUnprocessableEntity, "decode body: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	c.reap()
	var req RegisterRequest
	if !readBody(w, r, &req) {
		return
	}
	info := c.reg.register(req.Name)
	c.logf("worker %s (%q) registered", info.ID, info.Name)
	fleetJSON(w, http.StatusOK, RegisterResponse{
		ID:          info.ID,
		LeaseTTLMs:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMs: (c.cfg.LeaseTTL / 3).Milliseconds(),
		PollMs:      c.cfg.PollInterval.Milliseconds(),
	})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	fleetJSON(w, http.StatusOK, c.Status())
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	c.reap()
	id := r.PathValue("id")
	if !c.reg.heartbeat(id) {
		// The worker was reaped (or never existed): its leases are gone, so
		// it must re-register for a fresh identity before leasing again.
		fleetErr(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	c.reap()
	id := r.PathValue("id")
	var req LeaseRequest
	if !readBody(w, r, &req) {
		return
	}
	if !c.reg.heartbeat(id) { // leasing counts as liveness
		fleetErr(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	// A worker leases again only once it has reported every task of its
	// previous batch, so anything it still holds was granted by a lease
	// whose answer never reached it: requeue that batch, or it would stay
	// leased to a live worker for good.
	c.queue.RequeueWorker(id)
	max := req.Max
	if max <= 0 {
		max = 1
	}
	tasks, err := c.queue.LeaseWait(r.Context(), id, max, c.cfg.PollInterval)
	switch {
	case errors.Is(err, errClosed):
		fleetErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		return // the worker hung up; nobody reads an answer
	}
	if !c.reg.heartbeat(id) {
		// The worker was reaped while its request was held, so no later
		// reap will reclaim what the request was just granted.
		c.queue.RequeueWorker(id)
		fleetErr(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	if len(tasks) > 0 {
		c.logf("worker %s leased %d task(s)", id, len(tasks))
	}
	fleetJSON(w, http.StatusOK, LeaseResponse{Tasks: tasks})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	c.reap()
	id := r.PathValue("id")
	var comp Completion
	if !readBody(w, r, &comp) {
		return
	}
	if comp.ID == "" {
		fleetErr(w, http.StatusUnprocessableEntity, "completion missing task id")
		return
	}
	// Completions are processed even from deregistered workers: the queue's
	// (task, worker, attempt) check alone decides acceptance, so a reaped
	// worker's late report is rejected as stale without racing the registry.
	c.reg.heartbeat(id)
	if spec, ok := c.queue.spec(comp.ID); ok && comp.Error == "" {
		if err := checkStats(spec, comp.Stats); err != nil {
			// The report cannot be used: count it as a failed attempt, so
			// the retry/poison path ends the item, and tell the worker.
			c.queue.Complete(id, Completion{ID: comp.ID, Attempt: comp.Attempt, Error: "malformed completion: " + err.Error()})
			fleetErr(w, http.StatusUnprocessableEntity, "malformed completion: %v", err)
			return
		}
	}
	accepted := c.queue.Complete(id, comp)
	if !accepted {
		c.logf("worker %s: stale/duplicate completion for %s attempt %d ignored", id, comp.ID, comp.Attempt)
	}
	fleetJSON(w, http.StatusOK, CompleteResponse{Accepted: accepted})
}

// checkStats rejects a success whose stats result assembly cannot use: nil
// stats, or per-thread slices whose length is not the spec's thread count
// (1 for a single-thread baseline). Result rows index them by thread.
func checkStats(s experiments.Spec, st *metrics.Stats) error {
	if st == nil {
		return errors.New("success without stats")
	}
	n := len(s.Workload.Threads)
	if s.SingleThread >= 0 {
		n = 1
	}
	lens := []int{len(st.Committed), len(st.Fetched), len(st.ThreadWindowCycles), len(st.ThreadWindowCommitted)}
	for _, row := range st.IQOccSum {
		lens = append(lens, len(row))
	}
	for _, l := range lens {
		if l != n {
			return fmt.Errorf("stats carry %d per-thread entries for a %d-thread spec", l, n)
		}
	}
	return nil
}
