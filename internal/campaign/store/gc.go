package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// GCOptions tunes a compaction pass. The zero value removes only garbage
// (leftover temp files and entries that fail validation); age and count
// caps are opt-in.
type GCOptions struct {
	// MaxAge evicts entries whose file modification time is older than this
	// (0 = no age cap). Evicting a live result only costs a re-simulation.
	MaxAge time.Duration
	// MaxEntries keeps at most this many valid entries, evicting oldest
	// first by modification time (0 = no count cap).
	MaxEntries int
	// DryRun reports what would be removed without touching the directory.
	DryRun bool
}

// GCReport tallies one compaction pass.
type GCReport struct {
	// Scanned counts entry files examined.
	Scanned int `json:"scanned"`
	// TempFiles counts leftover atomic-write temporaries removed.
	TempFiles int `json:"temp_files"`
	// Corrupt counts entries removed because they failed validation
	// (checksum, key echo or format mismatch — a live runner would never
	// read them anyway).
	Corrupt int `json:"corrupt"`
	// Expired counts valid entries evicted by MaxAge.
	Expired int `json:"expired"`
	// Evicted counts valid entries evicted by MaxEntries.
	Evicted int `json:"evicted"`
	// Remaining counts entries left after the pass.
	Remaining int `json:"remaining"`
}

// gcEntry is one candidate file during a pass.
type gcEntry struct {
	path  string
	mtime time.Time
}

// GC compacts the store: leftover temp files from interrupted writes,
// entries that fail validation, and — when the options ask — entries past
// an age or count cap are removed, oldest first. Removing a valid entry is
// always safe: the store is a cache over deterministic simulation, so the
// worst case is one re-execution. Concurrent writers are tolerated (a file
// that disappears mid-pass is skipped, not an error). Files the pass could
// not remove are reported in the error, next to the completed report.
func (s *Store) GC(o GCOptions) (*GCReport, error) {
	rep := &GCReport{}
	var rmErrs []error
	remove := func(path string) {
		if o.DryRun {
			return
		}
		err := os.Remove(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			rmErrs = append(rmErrs, err)
		}
	}

	buckets, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var valid []gcEntry
	for _, b := range buckets {
		if !b.IsDir() || len(b.Name()) != 2 {
			continue
		}
		bdir := filepath.Join(s.dir, b.Name())
		files, err := os.ReadDir(bdir)
		if err != nil {
			continue // bucket vanished mid-pass
		}
		for _, f := range files {
			path := filepath.Join(bdir, f.Name())
			if strings.Contains(f.Name(), ".tmp") {
				rep.TempFiles++
				remove(path)
				continue
			}
			key, ok := strings.CutSuffix(f.Name(), ".json")
			if !ok || !ValidKey(key) || !strings.HasPrefix(key, b.Name()) {
				continue // not ours; leave unknown files alone
			}
			rep.Scanned++
			data, err := os.ReadFile(path)
			if err != nil {
				continue // entry vanished mid-pass
			}
			if _, err := DecodeEntry(key, data); err != nil {
				rep.Corrupt++
				remove(path)
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			valid = append(valid, gcEntry{path: path, mtime: info.ModTime()})
		}
	}

	sort.Slice(valid, func(i, j int) bool { return valid[i].mtime.Before(valid[j].mtime) })
	if o.MaxAge > 0 {
		cutoff := time.Now().Add(-o.MaxAge)
		for len(valid) > 0 && valid[0].mtime.Before(cutoff) {
			rep.Expired++
			remove(valid[0].path)
			valid = valid[1:]
		}
	}
	if o.MaxEntries > 0 && len(valid) > o.MaxEntries {
		excess := len(valid) - o.MaxEntries
		for _, e := range valid[:excess] {
			rep.Evicted++
			remove(e.path)
		}
		valid = valid[excess:]
	}
	rep.Remaining = len(valid)

	// Empty bucket directories are cosmetic; os.Remove refuses non-empty
	// ones, so a racing writer keeps its bucket.
	if !o.DryRun {
		for _, b := range buckets {
			if b.IsDir() && len(b.Name()) == 2 {
				_ = os.Remove(filepath.Join(s.dir, b.Name())) // best effort; next GC retries
			}
		}
	}
	return rep, errors.Join(rmErrs...)
}
