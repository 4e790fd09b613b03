package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/metrics"
)

func testStats() *metrics.Stats {
	st := metrics.NewStats(2, 2)
	st.Cycles = 1234
	st.Committed[0] = 1000
	st.Committed[1] = 900
	st.IQStalls = 42
	st.Imbalance[1][0] = 7
	return st
}

const keyA = "aa11223344556677889900aabbccddeeff00112233445566778899aabbccddee"

// TestRoundTrip pins the write/read cycle: every field that reaches the
// figure metrics must survive persistence.
func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testStats()
	if err := s.Put(keyA, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(keyA)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v, %v), want hit", got, ok, err)
	}
	if got.Cycles != want.Cycles || got.TotalCommitted() != want.TotalCommitted() ||
		got.IQStalls != want.IQStalls || got.Imbalance != want.Imbalance {
		t.Errorf("round trip mangled stats: got %+v want %+v", got, want)
	}
	if got.IPC() != want.IPC() {
		t.Errorf("IPC %v != %v after round trip", got.IPC(), want.IPC())
	}
	if n, err := s.Len(); n != 1 || err != nil {
		t.Errorf("Len = (%d, %v), want 1 entry", n, err)
	}
}

// TestMissIsSilent asserts an absent key is a miss, not an error.
func TestMissIsSilent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st, ok, err := s.Get(keyA); st != nil || ok || err != nil {
		t.Errorf("Get(absent) = (%v, %v, %v), want clean miss", st, ok, err)
	}
}

// TestCorruptEntryRejected garbles a stored entry every way the disk can
// and asserts each read is a diagnosed miss — never silently bad data. An
// entry path that cannot be read as a file is an error too, not a miss.
func TestCorruptEntryRejected(t *testing.T) {
	cases := []struct {
		name   string
		garble func(path string) error
	}{
		{"flipped stats byte", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			i := strings.Index(string(b), `"Cycles":1234`)
			b[i+len(`"Cycles":`)] = '9'
			return os.WriteFile(p, b, 0o644)
		}},
		{"truncated file", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, b[:len(b)/2], 0o644)
		}},
		{"not json", func(p string) error {
			return os.WriteFile(p, []byte("not json at all"), 0o644)
		}},
		{"empty file", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
		{"directory at the entry path", func(p string) error {
			if err := os.Remove(p); err != nil {
				return err
			}
			return os.Mkdir(p, 0o755)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(keyA, testStats()); err != nil {
				t.Fatal(err)
			}
			if err := tc.garble(s.path(keyA)); err != nil {
				t.Fatal(err)
			}
			st, ok, err := s.Get(keyA)
			if st != nil || ok {
				t.Fatalf("corrupt entry served: (%v, %v, %v)", st, ok, err)
			}
			if err == nil {
				t.Error("corrupt entry rejected without a diagnosis")
			}
		})
	}
}

// TestKeyMismatchRejected moves an entry under a foreign key: the store
// must notice the content does not belong there.
func TestKeyMismatchRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyA, testStats()); err != nil {
		t.Fatal(err)
	}
	keyB := "bb" + keyA[2:]
	if err := os.MkdirAll(filepath.Dir(s.path(keyB)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(keyA), s.path(keyB)); err != nil {
		t.Fatal(err)
	}
	if st, ok, err := s.Get(keyB); st != nil || ok || err == nil {
		t.Errorf("foreign entry served: (%v, %v, %v)", st, ok, err)
	}
}

// TestSessionLocalKeysNeverPersist: the runner's "spec:" fallback keys are
// only meaningful in-process and must not land on disk.
func TestSessionLocalKeysNeverPersist(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("spec:wl|icount|iq32", testStats()); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Errorf("session-local key persisted (%d entries)", n)
	}
}

// TestKeys lists exactly the valid persisted entries.
func TestKeys(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keyB := "bb" + keyA[2:]
	for _, k := range []string{keyA, keyB} {
		if err := s.Put(k, testStats()); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("Keys = %v, want 2 entries", keys)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	if !seen[keyA] || !seen[keyB] {
		t.Errorf("Keys = %v, want both %s and %s", keys, keyA, keyB)
	}
}

// TestIdenticalPutKeepsEntry: re-putting the stored result leaves the
// entry file untouched, while a different result or a corrupt entry is
// rewritten.
func TestIdenticalPutKeepsEntry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyA, testStats()); err != nil {
		t.Fatal(err)
	}
	path := s.path(keyA)
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	mtime := func() time.Time {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.ModTime()
	}

	if err := s.Put(keyA, testStats()); err != nil {
		t.Fatal(err)
	}
	if got := mtime(); !got.Equal(past) {
		t.Fatalf("identical re-put rewrote the entry (mtime %v, want %v)", got, past)
	}

	changed := testStats()
	changed.Cycles++
	if err := s.Put(keyA, changed); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(keyA); err != nil || !ok || got.Cycles != changed.Cycles {
		t.Fatalf("Get after a changed put = (%v, %v, %v), want cycles %d", got, ok, err, changed.Cycles)
	}

	if err := os.WriteFile(path, []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyA, testStats()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(keyA); err != nil || !ok {
		t.Fatalf("corrupt entry not healed by a put: (%v, %v)", ok, err)
	}
}

// TestGetResultsOwnTheirMemory: Get reads entries into a recycled buffer,
// so the stats it returns must not alias that buffer. Reading a second
// entry on the same goroutine (which reuses the buffer) must leave the
// first result as a fresh decode of its own bytes.
func TestGetResultsOwnTheirMemory(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keyB := "bb" + keyA[2:]
	other := metrics.NewStats(4, 4)
	for i := range other.Committed {
		other.Committed[i] = 99999
		other.ThreadWindowCycles[i] = 77777
	}
	other.Cycles = 5555555
	if err := s.Put(keyA, testStats()); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyB, other); err != nil {
		t.Fatal(err)
	}
	a, ok, err := s.Get(keyA)
	if err != nil || !ok {
		t.Fatalf("Get(A) = (%v, %v)", ok, err)
	}
	if _, ok, err := s.Get(keyB); err != nil || !ok {
		t.Fatalf("Get(B) = (%v, %v)", ok, err)
	}
	raw, err := os.ReadFile(s.path(keyA))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeEntry(keyA, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("A's stats changed after reading B:\ngot  %+v\nwant %+v", a, want)
	}
}

// BenchmarkStoreGet times the warm path's store read: 720 stored results
// (the warm-resubmit campaign's size) spread over the 256 key shards, read
// round robin.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 720)
	for i := range keys {
		sum := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
		keys[i] = hex.EncodeToString(sum[:])
		if err := s.Put(keys[i], testStats()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, ok, err := s.Get(keys[i%len(keys)]); !ok || err != nil {
			b.Fatalf("Get = (%v, %v)", ok, err)
		}
		i++
	}
}
