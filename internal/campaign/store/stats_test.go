package store

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"clustersmt/internal/metrics"
)

// FuzzDecodeStats checks decodeStats against encoding/json, its reference:
// whatever it accepts json.Unmarshal accepts too, into a DeepEqual value,
// and json.Marshal re-encodes byte for byte. It must never panic.
func FuzzDecodeStats(f *testing.F) {
	seed := func(st *metrics.Stats) {
		b, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for n := 1; n <= 4; n++ {
		for c := 1; c <= 4; c++ {
			seed(metrics.NewStats(n, c))
		}
	}
	seed(&metrics.Stats{})
	st := testStats()
	st.Cycles, st.Imbalance[2][1], st.IQOccSum[1][0] = -7, math.MinInt64, -1
	seed(st)
	st = testStats()
	st.Cycles, st.Committed[0], st.ThreadWindowCycles[1] = math.MaxInt64, math.MaxUint64, math.MaxInt64
	seed(st)
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodeStats(b)
		if err != nil {
			if got != nil {
				t.Fatalf("rejected stats still returned a value: %v", err)
			}
			return
		}
		var want metrics.Stats
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("decodeStats accepted %q, json.Unmarshal rejects it: %v", b, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("decodeStats(%q) = %+v, json.Unmarshal gives %+v", b, got, &want)
		}
		again, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted stats are not canonical:\n got %q\nwant %q", b, again)
		}
	})
}

// TestStatsDecoderCoversEveryField fills every metrics.Stats field with
// distinct non-zero values and round-trips them through json.Marshal and
// decodeStats. A field the decoder does not know fails it, and so does a
// field of a kind this test cannot fill.
func TestStatsDecoderCoversEveryField(t *testing.T) {
	var st metrics.Stats
	next := int64(0)
	var fill func(name string, v reflect.Value)
	fill = func(name string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Int64:
			next++
			v.SetInt(-next) // negative, to cover the sign too
		case reflect.Uint64:
			next++
			v.SetUint(math.MaxUint64 - uint64(next))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 3, 3))
			fallthrough
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(name, v.Index(i))
			}
		default:
			t.Fatalf("metrics.Stats.%s holds kind %s, which decodeStats does not parse", name, v.Kind())
		}
	}
	typ := reflect.TypeOf(st)
	for i := 0; i < typ.NumField(); i++ {
		fill(typ.Field(i).Name, reflect.ValueOf(&st).Elem().Field(i))
	}
	b, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStats(b)
	if err != nil {
		t.Fatalf("decodeStats: %v", err)
	}
	if !reflect.DeepEqual(got, &st) {
		t.Errorf("round trip lost fields:\n got %+v\nwant %+v", got, &st)
	}
}

// TestDecodeStatsShapes pins the slice forms json.Marshal writes: null for
// a nil slice (outer or an IQOccSum row), [] for an empty one.
func TestDecodeStatsShapes(t *testing.T) {
	for _, st := range []*metrics.Stats{
		{},
		metrics.NewStats(0, 0),
		metrics.NewStats(0, 2),
		{IQOccSum: [][]int64{nil, {}, {1}}},
		testStats(),
	} {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeStats(b)
		if err != nil || !reflect.DeepEqual(got, st) {
			t.Errorf("decodeStats(%s) = (%+v, %v), want %+v", b, got, err, st)
		}
	}
}

// BenchmarkDecodeEntry times the warm-path parse of one stored result for
// a four-thread, four-cluster machine.
func BenchmarkDecodeEntry(b *testing.B) {
	st := metrics.NewStats(4, 4)
	st.Cycles, st.IssueCycles = 123456, 98765
	for t := range st.Committed {
		st.Committed[t], st.Fetched[t] = 20000+uint64(t), 31000+uint64(t)
		st.ThreadWindowCycles[t], st.ThreadWindowCommitted[t] = 100000+int64(t), 16000+uint64(t)
		for c := range st.IQOccSum {
			st.IQOccSum[c][t] = 1<<20 + int64(c*t)
		}
	}
	st.CopyTransfers, st.IQStalls, st.Renamed, st.L2Misses = 4321, 8765, 88000, 210
	st.Imbalance = [metrics.NumImbClasses][2]int64{{1, 2}, {300, 40}, {5000, 600}}
	entry, err := EncodeEntry(keyA, st)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeEntry(keyA, entry); err != nil {
			b.Fatal(err)
		}
	}
}
