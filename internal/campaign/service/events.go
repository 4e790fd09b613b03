package service

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"clustersmt/internal/metrics"
)

// Event is one entry in a job's event stream, served over SSE by
// GET /v1/campaigns/{id}/events. Types:
//
//	"item"    — an item changed state (running / done / failed); carries
//	            index, label, state, and on completion cached/ipc/error.
//	"sample"  — one time-series observation window from a simulating item.
//	"state"   — the job reached a terminal state; always the last event.
//	"dropped" — synthetic marker: the reader fell behind the bounded ring
//	            and Dropped events were discarded (never buffered, so a
//	            slow consumer cannot grow daemon memory).
//
// Index is -1 for events not tied to an item ("state", "dropped").
type Event struct {
	Seq    int64           `json:"seq"`
	Type   string          `json:"type"`
	Index  int             `json:"index"`
	Label  string          `json:"label,omitempty"`
	State  State           `json:"state,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	IPC    float64         `json:"ipc,omitempty"`
	Error  string          `json:"error,omitempty"`
	Sample *metrics.Sample `json:"sample,omitempty"`
	// Dropped counts discarded events on a "dropped" marker.
	Dropped int64 `json:"dropped,omitempty"`
}

// eventLog is a job's bounded event history: a fixed ring of the most
// recent events plus a monotonically increasing sequence. Readers poll
// read with a cursor; a cursor older than the ring reports how many events
// it missed instead of blocking the writer or buffering per reader —
// memory is O(ring) per job no matter how many or how slow the consumers.
type eventLog struct {
	mu     sync.Mutex
	buf    []Event
	start  int64 // seq of the oldest retained event
	next   int64 // seq the next append will get
	closed bool
	// wake closes on the next append or close after a reader took it
	// (taken); an append nobody waits for leaves it in place.
	wake  chan struct{}
	taken bool
}

func newEventLog(size int) *eventLog {
	if size < 1 {
		size = 1
	}
	return &eventLog{buf: make([]Event, size), wake: make(chan struct{})}
}

// add appends one event, assigning its sequence number, and wakes every
// blocked reader. Events beyond the ring capacity overwrite the oldest.
func (l *eventLog) add(e Event) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	e.Seq = l.next
	l.buf[l.next%int64(len(l.buf))] = e
	l.next++
	if l.next-l.start > int64(len(l.buf)) {
		l.start = l.next - int64(len(l.buf))
	}
	if !l.taken {
		l.mu.Unlock()
		return
	}
	wake := l.wake
	l.wake = make(chan struct{})
	l.taken = false
	l.mu.Unlock()
	close(wake)
}

// close marks the log complete (no further events) and wakes readers.
func (l *eventLog) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	close(l.wake) // never replaced once closed
}

// read returns the events with sequence >= from, how many the cursor
// missed (it fell behind the ring), the cursor to resume from, whether the
// log is complete, and a channel that closes on the next append/close.
func (l *eventLog) read(from int64) (evs []Event, dropped int64, next int64, closed bool, wait <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.start {
		dropped = l.start - from
		from = l.start
	}
	if from < l.next {
		evs = make([]Event, 0, l.next-from)
	}
	for seq := from; seq < l.next; seq++ {
		evs = append(evs, l.buf[seq%int64(len(l.buf))])
	}
	l.taken = true
	return evs, dropped, l.next, l.closed, l.wake
}

// handleEvents streams a job's event log as Server-Sent Events:
// one "event: <type>" + "data: <json>" frame per Event, flushed as
// produced. The stream starts from the oldest event the ring still holds
// (a late subscriber to a finished job replays the retained tail), emits a
// "dropped" marker wherever the ring overwrote history, and ends — the
// server closes the connection — after the terminal "state" event.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var cursor int64
	for {
		evs, dropped, next, closed, wait := j.events.read(cursor)
		cursor = next
		if dropped > 0 {
			writeSSE(w, &Event{Seq: -1, Type: "dropped", Index: -1, Dropped: dropped})
		}
		for i := range evs {
			writeSSE(w, &evs[i])
		}
		if len(evs) > 0 || dropped > 0 {
			fl.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one SSE frame in one Write. The data payload is compact
// (single-line) JSON — SSE terminates a field at the first newline, so the
// indented report.WriteJSON encoder cannot be used here. An event that
// json.Marshal rejects (a NaN or infinite IPC) writes no frame.
func writeSSE(w io.Writer, e *Event) {
	bp := frameBufs.Get().(*[]byte)
	b, ok := appendSSE((*bp)[:0], e)
	if ok {
		_, _ = w.Write(b) // a broken stream ends with its request's context
	}
	*bp = b[:0]
	frameBufs.Put(bp)
}

// frameBufs recycles SSE frame buffers across events and streams.
var frameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// appendSSE appends e's SSE frame to b: the event and id fields, then a
// data field holding exactly the bytes json.Marshal(e) writes, then the
// blank line that ends the frame. It appends Event's fields by hand; only
// a sample payload goes through json.Marshal. ok is false, with nothing
// appended, where json.Marshal(e) would fail.
func appendSSE(b []byte, e *Event) (_ []byte, ok bool) {
	start := len(b)
	b = append(b, "event: "...)
	b = append(b, e.Type...)
	b = append(b, "\nid: "...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, "\ndata: {\"seq\":"...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, e.Type)
	b = append(b, `,"index":`...)
	b = strconv.AppendInt(b, int64(e.Index), 10)
	if e.Label != "" {
		b = append(b, `,"label":`...)
		b = appendJSONString(b, e.Label)
	}
	if e.State != "" {
		b = append(b, `,"state":`...)
		b = appendJSONString(b, string(e.State))
	}
	if e.Cached {
		b = append(b, `,"cached":true`...)
	}
	if e.IPC != 0 {
		if math.IsNaN(e.IPC) || math.IsInf(e.IPC, 0) {
			return b[:start], false
		}
		b = append(b, `,"ipc":`...)
		b = appendJSONFloat(b, e.IPC)
	}
	if e.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, e.Error)
	}
	if e.Sample != nil {
		sb, err := json.Marshal(e.Sample)
		if err != nil {
			return b[:start], false
		}
		b = append(b, `,"sample":`...)
		b = append(b, sb...)
	}
	if e.Dropped != 0 {
		b = append(b, `,"dropped":`...)
		b = strconv.AppendInt(b, e.Dropped, 10)
	}
	return append(b, "}\n\n"...), true
}

// appendJSONString appends s as encoding/json writes it. Printable ASCII
// without the characters json.Marshal escapes (quote, backslash, and the
// HTML-sensitive <, > and &) is copied as is; anything else falls back to
// json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest round-trip form, in exponent notation below 1e-6 and from
// 1e21 up, with a two-digit negative exponent trimmed to one digit.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
