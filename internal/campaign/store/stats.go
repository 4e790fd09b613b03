package store

import (
	"bytes"
	"fmt"
	"math"

	"clustersmt/internal/metrics"
)

// decodeStats parses exactly the bytes json.Marshal writes for a
// *metrics.Stats, in one forward pass and without reflection: every field
// in declaration order, no whitespace, canonical integers (no leading
// zero, no -0, no overflow), null for a nil slice and [] for an empty one.
// Any other byte sequence is an error naming the field and offset, so an
// accepted payload re-encodes to itself byte for byte — the invariant
// DecodeEntry already holds for the envelope around it.
//
// A field added to metrics.Stats must be added here, in its declaration
// position; TestStatsDecoderCoversEveryField fails until it is.
func decodeStats(b []byte) (*metrics.Stats, error) {
	d := statsDecoder{b: b}
	st := &metrics.Stats{}
	d.key("Cycles")
	st.Cycles = d.int64()
	d.key("Committed")
	st.Committed = d.uint64s()
	d.key("CommittedCopies")
	st.CommittedCopies = d.uint64()
	d.key("CopyTransfers")
	st.CopyTransfers = d.uint64()
	d.key("CopiesGenerated")
	st.CopiesGenerated = d.uint64()
	d.key("IQStalls")
	st.IQStalls = d.uint64()
	d.key("IQBlocked")
	st.IQBlocked = d.uint64()
	d.key("RFStalls")
	st.RFStalls = d.uint64()
	d.key("MOBStalls")
	st.MOBStalls = d.uint64()
	d.key("ROBStalls")
	st.ROBStalls = d.uint64()
	d.key("Fetched")
	st.Fetched = d.uint64s()
	d.key("Renamed")
	st.Renamed = d.uint64()
	d.key("Squashed")
	st.Squashed = d.uint64()
	d.key("Flushes")
	st.Flushes = d.uint64()
	d.key("Mispredicts")
	st.Mispredicts = d.uint64()
	d.key("BranchLookups")
	st.BranchLookups = d.uint64()
	d.key("L2Misses")
	st.L2Misses = d.uint64()
	d.key("Imbalance")
	d.expect('[')
	for c := range st.Imbalance {
		if c > 0 {
			d.expect(',')
		}
		d.expect('[')
		for k := range st.Imbalance[c] {
			if k > 0 {
				d.expect(',')
			}
			st.Imbalance[c][k] = d.int64()
		}
		d.expect(']')
	}
	d.expect(']')
	d.key("IssueCycles")
	st.IssueCycles = d.int64()
	d.key("IssuedUops")
	st.IssuedUops = d.uint64()
	d.key("StoreForwards")
	st.StoreForwards = d.uint64()
	d.key("IQOccSum")
	st.IQOccSum = d.int64Rows()
	d.key("ThreadWindowCycles")
	st.ThreadWindowCycles = d.int64s()
	d.key("ThreadWindowCommitted")
	st.ThreadWindowCommitted = d.uint64s()
	d.expect('}')
	if d.err == nil && d.pos != len(b) {
		d.fail("trailing bytes after the stats")
	}
	if d.err != nil {
		return nil, d.err
	}
	return st, nil
}

// statsDecoder is decodeStats' cursor. The first failure sticks: later
// calls do nothing and return zero values.
type statsDecoder struct {
	b     []byte
	pos   int
	field string // the field being decoded, for diagnoses
	err   error
}

func (d *statsDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("field %s at offset %d: %s", d.field, d.pos, what)
	}
}

// peek reports whether the next byte is c.
func (d *statsDecoder) peek(c byte) bool {
	return d.err == nil && d.pos < len(d.b) && d.b[d.pos] == c
}

// expect consumes the byte c.
func (d *statsDecoder) expect(c byte) {
	if d.peek(c) {
		d.pos++
		return
	}
	d.fail(fmt.Sprintf("want %q", c))
}

// key consumes the separator and quoted name that open the next field:
// '{' before the first field, ',' before every later one.
func (d *statsDecoder) key(name string) {
	if d.err != nil {
		return
	}
	sep := byte(',')
	if d.pos == 0 {
		sep = '{'
	}
	d.field = name
	end := d.pos + len(name) + 4 // sep, quotes and colon
	if end > len(d.b) || d.b[d.pos] != sep || d.b[d.pos+1] != '"' ||
		string(d.b[d.pos+2:end-2]) != name || d.b[end-2] != '"' || d.b[end-1] != ':' {
		d.fail(fmt.Sprintf("want %c%q:", sep, name))
		return
	}
	d.pos = end
}

// maxUint64 is math.MaxUint64 in decimal: a 20-digit integer overflows
// exactly when it sorts after it.
const maxUint64 = "18446744073709551615"

// uint64 consumes a canonical unsigned decimal: "0", or a nonzero digit
// and more digits, at most math.MaxUint64.
func (d *statsDecoder) uint64() uint64 {
	if d.err != nil {
		return 0
	}
	b, start, end := d.b, d.pos, d.pos
	var v uint64
	for ; end < len(b) && '0' <= b[end] && b[end] <= '9'; end++ {
		v = v*10 + uint64(b[end]-'0')
	}
	d.pos = end
	switch n := end - start; {
	case n == 0:
		d.fail("want an integer")
	case n > 1 && b[start] == '0':
		d.pos = start
		d.fail("leading zero")
	case n > len(maxUint64) || n == len(maxUint64) && string(b[start:end]) > maxUint64:
		d.pos = start
		d.fail("integer overflows uint64")
	default:
		return v
	}
	return 0
}

// int64 consumes a canonical signed decimal: an optional '-' before a
// nonzero magnitude, within the int64 range.
func (d *statsDecoder) int64() int64 {
	if !d.peek('-') {
		start := d.pos
		v := d.uint64()
		if v > math.MaxInt64 {
			d.pos = start
			d.fail("integer overflows int64")
			return 0
		}
		return int64(v)
	}
	start := d.pos
	d.pos++
	v := d.uint64()
	switch {
	case d.err != nil:
		return 0
	case v == 0:
		d.pos = start
		d.fail("negative zero")
		return 0
	case v > 1<<63:
		d.pos = start
		d.fail("integer overflows int64")
		return 0
	}
	return int64(-v) // two's complement: also right for -1<<63
}

// begin opens a slice: it consumes null and returns -1 (a nil slice),
// consumes [] and returns 0 (an empty one), or consumes '[' and returns
// the element count to allocate, the elements following.
func (d *statsDecoder) begin() int {
	if d.err != nil {
		return -1
	}
	if end := d.pos + len("null"); end <= len(d.b) && string(d.b[d.pos:end]) == "null" {
		d.pos = end
		return -1
	}
	if !d.peek('[') {
		d.fail("want null or '['")
		return -1
	}
	n := d.count()
	d.pos++
	if d.peek(']') {
		d.pos++
		return 0
	}
	return n
}

// next ends an element: it consumes ',' and reports that another follows,
// or consumes the closing ']'.
func (d *statsDecoder) next() bool {
	if d.peek(',') {
		d.pos++
		return true
	}
	d.expect(']')
	return false
}

func (d *statsDecoder) uint64s() []uint64 {
	n := d.begin()
	if n < 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for more := n > 0; more; more = d.next() {
		out = append(out, d.uint64())
	}
	return out
}

func (d *statsDecoder) int64s() []int64 {
	n := d.begin()
	if n < 0 {
		return nil
	}
	out := make([]int64, 0, n)
	for more := n > 0; more; more = d.next() {
		out = append(out, d.int64())
	}
	return out
}

func (d *statsDecoder) int64Rows() [][]int64 {
	n := d.begin()
	if n < 0 {
		return nil
	}
	out := make([][]int64, 0, n)
	for more := n > 0; more; more = d.next() {
		out = append(out, d.int64s())
	}
	return out
}

// count returns how many elements the array opening at the cursor's '['
// holds. It only sizes the allocation (the elements are validated as they
// are decoded), so a flat array's count is its commas up to the first
// ']', and only an array of arrays needs the nesting tracked.
func (d *statsDecoder) count() int {
	rest := d.b[d.pos+1:]
	if len(rest) == 0 || rest[0] != '[' && rest[0] != 'n' {
		if end := bytes.IndexByte(rest, ']'); end >= 0 {
			rest = rest[:end]
		}
		return bytes.Count(rest, []byte{','}) + 1
	}
	depth, n := 1, 1
	for _, c := range rest {
		switch c {
		case '[':
			depth++
		case ']':
			if depth--; depth == 0 {
				return n
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return n
}
