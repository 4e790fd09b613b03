// Package store persists simulation results in a content-addressed on-disk
// layout. Keys are the runner's spec fingerprints (hex SHA-256 over spec +
// canonical core.Config + core.SimVersion), so a result written by one
// process — or one branch — answers for any later run of the same
// simulation: re-runs become cache hits and interrupted campaigns resume
// where they stopped.
//
// Each entry is one JSON file at <dir>/<key[:2]>/<key>.json carrying its
// own checksum; entries that fail checksum, key or shape validation are
// rejected on read (the runner then re-executes and overwrites them).
// Writes go through a temp file + rename, so readers never observe a
// half-written entry.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"clustersmt/internal/metrics"
)

// formatVersion guards the entry file layout (not the simulated content —
// that is core.SimVersion's job, folded into the key).
const formatVersion = 1

// entry is the on-disk representation of one result.
type entry struct {
	Format   int             `json:"format"`
	Key      string          `json:"key"`
	Checksum string          `json:"checksum"` // hex SHA-256 of Stats
	Stats    json.RawMessage `json:"stats"`
}

// Store is a content-addressed result store rooted at a directory.
// It is safe for concurrent use by multiple goroutines and processes.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	return s.dir + string(filepath.Separator) + key[:2] + string(filepath.Separator) + key + ".json"
}

// readBufs recycles entry read buffers across Get and Put calls. Nothing
// decoded from a buffer aliases it: decodeStats keeps numbers only.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readEntry reads key's entry file into a pooled buffer and passes its
// bytes to use, which must not retain them.
func (s *Store) readEntry(key string, use func([]byte)) error {
	bp := readBufs.Get().(*[]byte)
	b, err := readFile(s.path(key), (*bp)[:0])
	if err == nil {
		use(b)
	}
	*bp = b[:0]
	readBufs.Put(bp)
	return err
}

// Get loads the result stored under key. A corrupt or mismatched entry
// yields (nil, false, err) — a miss with a diagnosis, never bad data.
func (s *Store) Get(key string) (*metrics.Stats, bool, error) {
	if !ValidKey(key) {
		return nil, false, nil
	}
	var st *metrics.Stats
	var decErr error
	err := s.readEntry(key, func(b []byte) { st, decErr = DecodeEntry(key, b) })
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, false, nil
	case err != nil:
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	case decErr != nil:
		return nil, false, decErr
	}
	return st, true, nil
}

// Put persists st under key atomically. Session-local keys are dropped
// silently (they are valid only within one process). An entry already
// stored byte for byte is left as it is, modification time included.
func (s *Store) Put(key string, st *metrics.Stats) error {
	if !ValidKey(key) {
		return nil
	}
	b, err := EncodeEntry(key, st)
	if err != nil {
		return err
	}
	// Keys are content addresses and the encoding is deterministic, so a
	// re-put usually carries the stored bytes: a campaign run without
	// resume re-executes and re-puts every item, and processes sharing one
	// store directory put the same results. Reading the entry is much
	// cheaper than a temp file, a write and a rename.
	same := false
	if err := s.readEntry(key, func(old []byte) { same = bytes.Equal(old, b) }); err == nil && same {
		return nil
	}
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: rename %s: %w", key, err)
	}
	return nil
}

// Keys lists every key with an entry file in the store, in no particular
// order. Invalid filenames are skipped; entries are not validated.
func (s *Store) Keys() ([]string, error) {
	var out []string
	buckets, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, b := range buckets {
		if !b.IsDir() || len(b.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, b.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			key, ok := strings.CutSuffix(f.Name(), ".json")
			if ok && ValidKey(key) && strings.HasPrefix(key, b.Name()) {
				out = append(out, key)
			}
		}
	}
	return out, nil
}

// Len counts the store's entry files.
func (s *Store) Len() (int, error) {
	keys, err := s.Keys()
	return len(keys), err
}
