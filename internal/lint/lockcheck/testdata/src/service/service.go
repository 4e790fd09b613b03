// Fixture for the lockcheck analyzer. The package is named service because
// the analyzer's locking discipline is scoped to the campaign service.
package service

import (
	"net/http"
	"sync"
	"time"
)

type srv struct {
	mu     sync.Mutex
	rw     sync.RWMutex
	queue  chan int
	events chan string
}

type engine struct{}

func (engine) RunCtx()  {}
func (engine) RunPlan() {}
func (engine) Wait()    {}

// --- violations ---

func (s *srv) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Second) // want `time\.Sleep while holding s\.mu`
	s.mu.Unlock()
}

func (s *srv) sendUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue <- v // want `channel send while holding s\.mu`
}

func (s *srv) recvUnderRLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return <-s.queue // want `channel receive while holding s\.rw`
}

func (s *srv) writeUnderLock(w http.ResponseWriter) {
	s.mu.Lock()
	w.Write(nil) // want `http\.ResponseWriter method call \(a slow client blocks the write\) while holding s\.mu`
	s.mu.Unlock()
}

func (s *srv) fprintUnderLock(w http.ResponseWriter) {
	s.mu.Lock()
	writeJSON(w, 1) // want `call passing an http\.ResponseWriter \(a slow client blocks the write\) while holding s\.mu`
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, v any) {}

func (s *srv) runUnderLock(e engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.RunCtx() // want `call to RunCtx \(runs or waits for work of unbounded duration\) while holding s\.mu`
}

func (s *srv) runPlanUnderLock(e engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.RunPlan() // want `call to RunPlan \(runs or waits for work of unbounded duration\) while holding s\.mu`
}

func (s *srv) selectNoDefault() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select with no default clause while holding s\.mu`
	case v := <-s.queue:
		_ = v
	case s.events <- "x":
	}
}

func (s *srv) rangeOverChan() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.queue { // want `range over channel while holding s\.mu`
		_ = v
	}
}

func (s *srv) bothHeld() {
	s.mu.Lock()
	s.rw.Lock()
	time.Sleep(1) // want `time\.Sleep while holding s\.mu, s\.rw`
	s.rw.Unlock()
	s.mu.Unlock()
}

// Locked on both arms of an if: the lock is held on every path into the
// merge, so the send after it blocks under s.mu.
func (s *srv) lockedOnBothArms(ok bool, v int) {
	if ok {
		s.mu.Lock()
	} else {
		s.mu.Lock()
	}
	s.queue <- v // want `channel send while holding s\.mu`
	s.mu.Unlock()
}

// --- legal shapes ---

// Submit-style queue admission: select with a default never blocks.
func (s *srv) submit(v int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.queue <- v:
		return true
	default:
		return false
	}
}

// Blocking after the unlock is fine.
func (s *srv) unlockThenBlock() {
	s.mu.Lock()
	v := len(s.events)
	s.mu.Unlock()
	time.Sleep(time.Duration(v))
	s.queue <- v
}

// An early conditional unlock+return does not leak the lock past the if.
func (s *srv) earlyReturn(ok bool) {
	s.mu.Lock()
	if ok {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	time.Sleep(1)
}

// A goroutine spawned under the lock runs on its own stack; its blocking
// operations are not under the caller's critical section.
func (s *srv) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.queue <- 1
	}()
}
