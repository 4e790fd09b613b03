package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"clustersmt/internal/metrics"
)

// ValidKey accepts the hex-SHA-256 keys the runner produces. Session-local
// fallback keys ("spec:...") are rejected: they are not content-addressed,
// so persisting or transmitting them would poison later runs.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// EncodeEntry renders one result in the store's checksummed entry format —
// the same bytes whether the entry lands on disk or travels the fleet's
// /v1/store wire: a self-validating JSON document carrying its format
// version, its key and a SHA-256 over the embedded stats.
func EncodeEntry(key string, st *metrics.Stats) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("store: marshal stats: %w", err)
	}
	sum := sha256.Sum256(payload)
	// Compact, not indented: indentation would rewrite the embedded Stats
	// bytes and break the checksum round-trip.
	b, err := json.Marshal(entry{
		Format:   formatVersion,
		Key:      key,
		Checksum: hex.EncodeToString(sum[:]),
		Stats:    payload,
	})
	if err != nil {
		return nil, fmt.Errorf("store: marshal entry: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeEntry parses and fully validates entry bytes claimed to hold key:
// format version, key echo and checksum must all match before the stats
// are trusted. Every failure is an error — callers (disk reads, the remote
// store client, the coordinator's PUT handler) treat it as "no such
// result", never as data.
//
// Only the canonical envelope EncodeEntry writes is accepted,
// {"format":1,"key":"<key>","checksum":"<64 hex>","stats":<stats>} and a
// newline, so the envelope is matched byte by byte and only the stats are
// unmarshalled. The checksum pins the stats bytes, so an accepted entry is
// exactly what EncodeEntry would write for its stats.
func DecodeEntry(key string, b []byte) (*metrics.Stats, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	corrupt := func(what string) error {
		return fmt.Errorf("store: corrupt entry %s: %s", key, what)
	}
	rest, ok := bytes.CutPrefix(b, []byte(`{"format":`))
	if !ok {
		return nil, corrupt("no format field")
	}
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	format, err := strconv.Atoi(string(rest[:n]))
	if err != nil || strconv.Itoa(format) != string(rest[:n]) {
		return nil, corrupt("malformed format field")
	}
	if format != formatVersion {
		return nil, fmt.Errorf("store: entry %s has format %d, want %d", key, format, formatVersion)
	}
	rest, ok = bytes.CutPrefix(rest[n:], []byte(`,"key":"`))
	if !ok {
		return nil, corrupt("no key field")
	}
	n = bytes.IndexByte(rest, '"')
	if n < 0 {
		return nil, corrupt("unterminated key field")
	}
	if claimed := rest[:n]; string(claimed) != key {
		return nil, fmt.Errorf("store: entry %s claims key %q", key, claimed)
	}
	rest, ok = bytes.CutPrefix(rest[n:], []byte(`","checksum":"`))
	if !ok || len(rest) < 2*sha256.Size {
		return nil, corrupt("no checksum field")
	}
	checksum := rest[:2*sha256.Size]
	payload, ok := bytes.CutPrefix(rest[2*sha256.Size:], []byte(`","stats":`))
	if !ok {
		return nil, corrupt("no stats field")
	}
	payload, ok = bytes.CutSuffix(payload, []byte("}\n"))
	if !ok {
		return nil, corrupt("unterminated entry")
	}
	sum := sha256.Sum256(payload)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], sum[:])
	if !bytes.Equal(checksum, want[:]) {
		return nil, fmt.Errorf("store: entry %s failed its checksum", key)
	}
	st := &metrics.Stats{}
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, fmt.Errorf("store: corrupt stats in %s: %w", key, err)
	}
	return st, nil
}
