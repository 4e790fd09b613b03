package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clustersmt/internal/campaign/store"
	"clustersmt/internal/metrics"
	"clustersmt/internal/workload"
)

// TestCacheKeyContentAddressing: equal simulations agree on a key across
// runner instances; any outcome-relevant difference disagrees.
func TestCacheKeyContentAddressing(t *testing.T) {
	w := workload.ByCategory("ispec00")[0]
	w2 := workload.ByCategory("fspec00")[0]
	s := iqStudySpec(w, "icount", 32)

	a, b := NewRunner(1500), NewRunner(1500)
	if a.CacheKey(s) != b.CacheKey(s) {
		t.Error("identical simulations got different keys across runners")
	}
	if len(a.CacheKey(s)) != 64 {
		t.Errorf("key %q is not a hex SHA-256", a.CacheKey(s))
	}
	distinct := map[string]string{
		"base":      a.CacheKey(s),
		"scheme":    a.CacheKey(iqStudySpec(w, "cssp", 32)),
		"iq":        a.CacheKey(iqStudySpec(w, "icount", 64)),
		"workload":  a.CacheKey(iqStudySpec(w2, "icount", 32)),
		"trace len": NewRunner(3000).CacheKey(s),
		"single":    a.CacheKey(Spec{Workload: w, Scheme: "icount", IQSize: 32, SingleThread: 0}),
	}
	seen := map[string]string{}
	for name, key := range distinct {
		if prev, ok := seen[key]; ok {
			t.Errorf("%s and %s collided on key %s", name, prev, key)
		}
		seen[key] = name
	}
}

type flakyStore struct {
	MemStore
	getErr error
}

func (f *flakyStore) Get(key string) (*metrics.Stats, bool, error) {
	if f.getErr != nil {
		return nil, false, f.getErr
	}
	return f.MemStore.Get(key)
}

// TestRunnerTreatsStoreErrorAsMiss: a corrupt store entry must trigger
// re-execution, not a failed run.
func TestRunnerTreatsStoreErrorAsMiss(t *testing.T) {
	r := NewRunner(1200)
	fs := &flakyStore{getErr: errors.New("checksum mismatch")}
	r.Store = fs
	w := workload.ByCategory("ispec00")[0]
	st, _, executed, _, err := r.Do(context.Background(), iqStudySpec(w, "icount", 32), nil)
	if err != nil || st == nil {
		t.Fatalf("Run = (%v, %v), want re-execution on store error", st, err)
	}
	if !executed {
		t.Error("the run over a failing store was not executed")
	}
	// With the store healthy again, the Put-through entry answers.
	fs.getErr = nil
	st2, _, executed, _, err := r.Do(context.Background(), iqStudySpec(w, "icount", 32), nil)
	if err != nil || st2 != st {
		t.Errorf("healthy store did not recall the executed result")
	}
	if executed {
		t.Error("the recall was executed again")
	}
}

// TestNonCanonicalEntryResimulated: a disk entry whose checksum holds but
// whose stats are not in json.Marshal's form (here indented, which
// json.Unmarshal would read) is a miss. The runner simulates once, says
// why under Verbose, and overwrites the file with EncodeEntry's bytes.
func TestNonCanonicalEntryResimulated(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1200)
	r.Store = disk
	var mu sync.Mutex
	var lines []string
	r.Verbose = func(line string) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, line)
	}
	spec := iqStudySpec(workload.ByCategory("ispec00")[0], "icount", 32)
	key := r.CacheKey(spec)
	canonical, err := json.Marshal(metrics.NewStats(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", " "); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(indented.Bytes())
	path := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	entry := fmt.Appendf(nil, `{"format":1,"key":"%s","checksum":"%x","stats":%s}`+"\n", key, sum, indented.Bytes())
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}

	st, _, executed, _, err := r.Do(context.Background(), spec, nil)
	if err != nil || st == nil || st.Cycles == 0 {
		t.Fatalf("run = (%v, %v), want a simulated result", st, err)
	}
	if !executed {
		t.Error("the non-canonical entry was not re-simulated")
	}
	want, err := store.EncodeEntry(key, st)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("entry after the run = (%q, %v), want EncodeEntry's %q", got, err, want)
	}
	mu.Lock()
	reported := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(reported, "store get: ") || !strings.Contains(reported, "corrupt stats") {
		t.Errorf("Verbose did not report the rejected entry:\n%s", reported)
	}
}

// TestLayeredBackfill: a hit in a deep layer is copied into the faster
// layers above it, and only those.
func TestLayeredBackfill(t *testing.T) {
	fast, slow := NewMemStore(), NewMemStore()
	st := metrics.NewStats(1, 2)
	st.Cycles = 7
	if err := slow.Put("k", st); err != nil {
		t.Fatal(err)
	}
	l := Layered(fast, slow)
	got, ok, err := l.Get("k")
	if err != nil || !ok || got != st {
		t.Fatalf("layered Get = (%v, %v, %v)", got, ok, err)
	}
	if got2, ok, _ := fast.Get("k"); !ok || got2 != st {
		t.Error("hit was not backfilled into the fast layer")
	}
	if fast.Len() != 1 || slow.Len() != 1 {
		t.Errorf("layer sizes %d/%d, want 1/1", fast.Len(), slow.Len())
	}
}

// TestWriteOnly: reads always miss, writes land.
func TestWriteOnly(t *testing.T) {
	mem := NewMemStore()
	w := WriteOnly(mem)
	st := metrics.NewStats(1, 2)
	if err := w.Put("k", st); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := w.Get("k"); ok {
		t.Error("write-only store served a read")
	}
	if got, ok, _ := mem.Get("k"); !ok || got != st {
		t.Error("write-only store dropped the write")
	}
}
