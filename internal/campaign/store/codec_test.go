package store

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// FuzzDecodeEntry drives the entry parser, the trust boundary for disk
// reads and the fleet's /v1/store wire, with arbitrary bytes. It must never
// panic, and whatever it accepts must be exactly what EncodeEntry writes
// for the decoded stats: the strict envelope drops nothing an entry holds.
func FuzzDecodeEntry(f *testing.F) {
	good, err := EncodeEntry(keyA, testStats())
	if err != nil {
		f.Fatal(err)
	}
	keyB := "bb" + keyA[2:]
	flipped := bytes.Clone(good)
	i := bytes.Index(flipped, []byte(`"checksum":"`)) + len(`"checksum":"`)
	flipped[i] ^= 1
	f.Add(keyA, good)
	f.Add(keyA, good[:len(good)/2])
	f.Add(keyA, bytes.Replace(good, []byte(`"format":1`), []byte(`"format":2`), 1))
	f.Add(keyB, good)
	f.Add(keyA, flipped)
	f.Fuzz(func(t *testing.T, key string, b []byte) {
		st, err := DecodeEntry(key, b)
		if err != nil {
			if st != nil {
				t.Fatalf("rejected entry still returned stats: %v", err)
			}
			return
		}
		again, err := EncodeEntry(key, st)
		if err != nil {
			t.Fatalf("re-encode accepted entry: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted entry is not canonical:\n got %q\nwant %q", b, again)
		}
	})
}

// FuzzValidKey checks ValidKey against an independent definition: a key is
// valid exactly when it is the lowercase hex spelling of 32 bytes.
func FuzzValidKey(f *testing.F) {
	f.Add(keyA)
	f.Add(strings.ToUpper(keyA))
	f.Add(keyA[:63])
	f.Add(keyA + "0")
	f.Add("spec:wl|icount|iq32")
	f.Add("")
	f.Fuzz(func(t *testing.T, key string) {
		raw, err := hex.DecodeString(key)
		want := err == nil && len(raw) == 32 && hex.EncodeToString(raw) == key
		if got := ValidKey(key); got != want {
			t.Fatalf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	})
}

// TestDecodeEntryDiagnoses: the format, key-echo and checksum checks each
// report their own failure.
func TestDecodeEntryDiagnoses(t *testing.T) {
	good, err := EncodeEntry(keyA, testStats())
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	i := bytes.Index(flipped, []byte(`"checksum":"`)) + len(`"checksum":"`)
	flipped[i] ^= 1
	cases := []struct {
		name, key string
		b         []byte
		want      string
	}{
		{"format 2", keyA, bytes.Replace(good, []byte(`"format":1`), []byte(`"format":2`), 1), "has format 2, want 1"},
		{"foreign key", "bb" + keyA[2:], good, "claims key"},
		{"flipped checksum", keyA, flipped, "failed its checksum"},
		{"truncated", keyA, good[:len(good)/2], "corrupt entry"},
		{"indented", keyA, bytes.Replace(good, []byte(`"stats":`), []byte(`"stats": `), 1), "failed its checksum"},
	}
	for _, tc := range cases {
		st, err := DecodeEntry(tc.key, tc.b)
		if st != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeEntry = (%v, %v), want an error containing %q", tc.name, st, err, tc.want)
		}
	}
	if st, err := DecodeEntry(keyA, good); err != nil || st.Cycles != testStats().Cycles {
		t.Errorf("canonical entry: DecodeEntry = (%v, %v)", st, err)
	}
}
