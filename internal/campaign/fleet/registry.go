package fleet

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// WorkerInfo is the coordinator's view of one registered worker, served by
// GET /v1/workers.
type WorkerInfo struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Registered time.Time `json:"registered"`
	LastSeen   time.Time `json:"last_seen"`
	// Leased counts the worker's currently-held leases (filled by the
	// coordinator from the queue when listing).
	Leased int `json:"leased,omitempty"`
}

// registry tracks live workers by heartbeat. A worker that misses its ttl
// is reaped: removed from the live set so the queue stops sharding to it,
// with its leases requeued by the coordinator.
type registry struct {
	ttl   time.Duration
	clock func() time.Time

	mu      sync.Mutex
	seq     int
	workers map[string]*WorkerInfo
}

func newRegistry(ttl time.Duration, clock func() time.Time) *registry {
	if clock == nil {
		clock = time.Now
	}
	return &registry{ttl: ttl, clock: clock, workers: make(map[string]*WorkerInfo)}
}

// register admits a worker and returns its assigned ID. IDs are sequential
// ("w000001", ...): a worker that re-registers after being reaped gets a
// fresh identity, so completions from its previous life stay rejectable.
func (r *registry) register(name string) *WorkerInfo {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	w := &WorkerInfo{
		ID:         fmt.Sprintf("w%06d", r.seq),
		Name:       name,
		Registered: now,
		LastSeen:   now,
	}
	r.workers[w.ID] = w
	return w
}

// heartbeat refreshes a worker's liveness; false means the ID is unknown
// (reaped or never registered) and the worker must re-register.
func (r *registry) heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return false
	}
	w.LastSeen = r.clock()
	return true
}

// known reports whether id is currently registered.
func (r *registry) known(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.workers[id]
	return ok
}

// live returns the registered worker IDs (the rendezvous-hash population).
func (r *registry) live() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.workers))
	for id := range r.workers {
		out = append(out, id)
	}
	return out
}

// list snapshots every registered worker, in registration (ID) order.
func (r *registry) list() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, *w)
	}
	slices.SortFunc(out, func(a, b WorkerInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// reap removes workers whose last heartbeat is older than the ttl and
// returns their IDs so the caller can requeue their leases.
func (r *registry) reap() []string {
	cutoff := r.clock().Add(-r.ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	var dead []string
	for id, w := range r.workers {
		if w.LastSeen.Before(cutoff) {
			dead = append(dead, id)
			delete(r.workers, id)
		}
	}
	return dead
}
