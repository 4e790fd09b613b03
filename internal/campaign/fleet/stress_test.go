package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clustersmt/internal/metrics"
)

// TestQueueStress hammers one queue from 8 goroutines — six worker loops
// leasing/stealing/completing/failing/abandoning, one lease expirer, one
// whole-worker requeuer — and checks the dispatch invariants. Half the
// workers hold their lease requests open (LeaseWait), so the wake-ups race
// the requeues and reclaims that fire them:
//
//   - no (task, attempt) pair is ever granted twice: a lease grant is
//     identified by its attempt number, so a duplicate grant would mean an
//     item leased twice concurrently;
//   - attempts never exceed the configured cap;
//   - no item is lost: every task reaches a terminal state with OnDone
//     delivered exactly once.
//
// Run it under -race (CI's fleet job does) — the interleavings are the
// test.
func TestQueueStress(t *testing.T) {
	const (
		numTasks    = 200
		numWorkers  = 6
		maxAttempts = 6
	)
	q := NewQueue(maxAttempts, time.Microsecond, 10*time.Microsecond, nil)

	var (
		mu       sync.Mutex
		grants   = make(map[string]int) // "id/attempt" -> grant count
		terminal = make(map[string]int) // id -> OnDone deliveries
		done     atomic.Int64
	)
	onLease := func(task Task) {
		mu.Lock()
		defer mu.Unlock()
		k := fmt.Sprintf("%s/%d", task.ID, task.Attempt)
		grants[k]++
		if grants[k] > 1 {
			t.Errorf("attempt %s granted %d times (item leased twice concurrently)", k, grants[k])
		}
		if task.Attempt > maxAttempts {
			t.Errorf("task %s leased at attempt %d beyond cap %d", task.ID, task.Attempt, maxAttempts)
		}
	}
	onDone := func(o Outcome) {
		mu.Lock()
		terminal[o.ID]++
		if terminal[o.ID] > 1 {
			t.Errorf("task %s reached terminal state %d times", o.ID, terminal[o.ID])
		}
		mu.Unlock()
		done.Add(1)
	}
	for i := 0; i < numTasks; i++ {
		if err := q.Add(Task{ID: fmt.Sprintf("t%03d", i)}, onDone); err != nil {
			t.Fatal(err)
		}
	}

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var wg sync.WaitGroup

	// Six workers: lease a small batch, then per task randomly complete,
	// fail, or abandon (the expirer requeues abandoned leases).
	for w := 0; w < numWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			live := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-ctx.Done():
					return
				default:
				}
				var tasks []Task
				if w%2 == 0 {
					tasks = q.Lease(id, live, 4, 50*time.Microsecond)
				} else {
					tasks, _ = q.LeaseWait(ctx, id, func() []string { return live }, 4, 50*time.Microsecond, time.Millisecond)
				}
				for _, task := range tasks {
					onLease(task)
					switch rng.Intn(4) {
					case 0: // abandon: say nothing, let the lease expire
					case 1:
						q.Complete(id, Completion{ID: task.ID, Attempt: task.Attempt, Error: "injected"})
					case 2: // duplicate/stale storm
						q.Complete(id, Completion{ID: task.ID, Attempt: task.Attempt - 1, Error: "stale"})
						q.Complete(id, Completion{ID: task.ID, Attempt: task.Attempt, Executed: true, Stats: &metrics.Stats{}})
						q.Complete(id, Completion{ID: task.ID, Attempt: task.Attempt, Executed: true, Stats: &metrics.Stats{}})
					default:
						q.Complete(id, Completion{ID: task.ID, Attempt: task.Attempt, Executed: true, Stats: &metrics.Stats{}})
					}
				}
				if rng.Intn(8) == 0 {
					q.Renew(id, 50*time.Microsecond)
				}
			}
		}(w)
	}
	// Expirer: abandoned leases requeue here.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			default:
				q.ExpireLeases()
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()
	// Reaper: whole workers randomly "die", requeueing their leases early.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-ctx.Done():
				return
			default:
				q.RequeueWorker(fmt.Sprintf("w%d", rng.Intn(numWorkers)))
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	deadline := time.After(30 * time.Second)
	for done.Load() < numTasks {
		select {
		case <-deadline:
			stop()
			wg.Wait()
			t.Fatalf("only %d/%d tasks terminal at deadline: %+v", done.Load(), numTasks, q.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	stop()
	wg.Wait()

	st := q.Stats()
	if st.Done+st.Poisoned != numTasks || st.Pending != 0 || st.Leased != 0 || st.Held != 0 {
		t.Fatalf("final stats %+v: %d tasks unaccounted for", st, numTasks-st.Done-st.Poisoned)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(terminal) != numTasks {
		t.Fatalf("%d/%d tasks delivered an outcome", len(terminal), numTasks)
	}
}
