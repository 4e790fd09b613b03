package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"clustersmt/internal/metrics"
)

// readSSE consumes an SSE response body until the server closes it (or the
// frame limit trips) and returns the decoded events in arrival order.
func readSSE(t *testing.T, resp *http.Response) []Event {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status code = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q, want text/event-stream", ct)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var evType string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			evType = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var e Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			if e.Type != evType {
				t.Fatalf("frame event name %q != payload type %q", evType, e.Type)
			}
			out = append(out, e)
			if len(out) > 100000 {
				t.Fatal("SSE stream did not terminate")
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	return out
}

func openEvents(t *testing.T, srv *httptest.Server, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEventLogRing pins the bounded-ring semantics the SSE handler builds
// on: appends beyond capacity overwrite the oldest events, a stale cursor
// learns exactly how many it missed, and close wakes blocked readers.
func TestEventLogRing(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.add(Event{Type: "item", Index: i})
	}
	evs, dropped, next, closed, _ := l.read(0)
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	if len(evs) != 4 || evs[0].Index != 6 || evs[3].Index != 9 {
		t.Fatalf("ring kept %d events, first index %d", len(evs), evs[0].Index)
	}
	for i, e := range evs {
		if e.Seq != int64(6+i) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, 6+i)
		}
	}
	if closed {
		t.Fatal("log closed prematurely")
	}
	// A current cursor sees nothing new and its wait channel is open until
	// the next append.
	evs, dropped, _, _, wait := l.read(next)
	if len(evs) != 0 || dropped != 0 {
		t.Fatalf("current cursor saw %d events, %d dropped", len(evs), dropped)
	}
	select {
	case <-wait:
		t.Fatal("wait channel fired without an append")
	default:
	}
	// The next append wakes that reader, and reading again hands out a
	// fresh channel.
	l.add(Event{Type: "item"})
	select {
	case <-wait:
	default:
		t.Fatal("append did not wake the reader")
	}
	_, _, next, _, wait = l.read(next)
	select {
	case <-wait:
		t.Fatal("fresh wait channel fired without an append")
	default:
	}
	l.close()
	select {
	case <-wait:
	case <-time.After(time.Second):
		t.Fatal("close did not wake the reader")
	}
	if _, _, _, closed, _ := l.read(next); !closed {
		t.Fatal("log not closed after close()")
	}
	// add after close is a no-op.
	l.add(Event{Type: "item"})
	if _, _, n, _, _ := l.read(0); n != next {
		t.Fatal("add after close appended")
	}
}

// TestSSEStreamsSamplesAndTerminal subscribes before the job finishes and
// checks the full stream shape: item lifecycle frames, at least one
// mid-simulation sample frame, and a final terminal "state" frame after
// which the server closes the stream.
func TestSSEStreamsSamplesAndTerminal(t *testing.T) {
	srv := startServer(t, Config{Workers: 2, SampleInterval: 1024})
	st := submit(t, srv, `{
		"workloads": ["dh.ilp.2.1"],
		"schemes": ["icount", "cssp"],
		"trace_lens": [20000]
	}`)
	evs := readSSE(t, openEvents(t, srv, st.ID))
	if len(evs) == 0 {
		t.Fatal("empty event stream")
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("last event = %+v, want terminal state done", last)
	}
	var samples, running, done int
	sawSampleBeforeEnd := false
	for i, e := range evs {
		switch e.Type {
		case "sample":
			samples++
			if e.Sample == nil || e.Sample.Window <= 0 {
				t.Fatalf("sample event without payload: %+v", e)
			}
			if i < len(evs)-1 {
				sawSampleBeforeEnd = true
			}
		case "item":
			switch e.State {
			case StateRunning:
				running++
			case StateDone:
				done++
				if e.Label == "" {
					t.Fatalf("done item event without label: %+v", e)
				}
			case StateFailed:
				t.Fatalf("item failed: %+v", e)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no sample events in the stream")
	}
	if !sawSampleBeforeEnd {
		t.Fatal("samples only arrived with the terminal frame")
	}
	if running != st.Total || done != st.Total {
		t.Fatalf("item frames: %d running / %d done, want %d each", running, done, st.Total)
	}

	// A late subscriber to the finished job replays the retained tail and
	// still sees the terminal frame immediately.
	replay := readSSE(t, openEvents(t, srv, st.ID))
	if len(replay) == 0 || replay[len(replay)-1].Type != "state" {
		t.Fatalf("replay did not end in a state frame: %d events", len(replay))
	}
}

// TestSSECancelClosesStream: cancelling a running job terminates its event
// stream with a "state: canceled" frame rather than leaving subscribers
// hanging.
func TestSSECancelClosesStream(t *testing.T) {
	srv := startServer(t, Config{Workers: 1, JobWorkers: 1})
	st := submit(t, srv, `{
		"categories": ["dh"],
		"schemes": ["icount", "cssp", "cdprf"],
		"trace_lens": [60000]
	}`)
	deadline := time.Now().Add(time.Minute)
	for {
		cur := getStatus(t, srv, st.ID)
		if cur.State == StateRunning {
			break
		}
		if cur.State.Finished() || time.Now().After(deadline) {
			t.Fatalf("job state %s before cancel", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := openEvents(t, srv, st.ID)
	go func() {
		time.Sleep(50 * time.Millisecond)
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/campaigns/"+st.ID, nil)
		r, err := http.DefaultClient.Do(req)
		if err == nil {
			r.Body.Close()
		}
	}()
	evs := readSSE(t, resp) // returns only because the server closes the stream
	if len(evs) == 0 {
		t.Fatal("empty event stream")
	}
	last := evs[len(evs)-1]
	if last.Type != "state" || last.State != StateCanceled {
		t.Fatalf("last event = %+v, want terminal state canceled", last)
	}
}

// TestSSEDroppedMarker: a reader that missed more events than the bounded
// ring retains gets an explicit "dropped" marker with the gap size instead
// of silently resuming — and the daemon never buffered on its behalf.
func TestSSEDroppedMarker(t *testing.T) {
	srv := startServer(t, Config{Workers: 2, EventBuffer: 4, SampleInterval: 1024})
	st := submit(t, srv, `{
		"workloads": ["dh.ilp.2.1"],
		"schemes": ["icount", "cssp"],
		"trace_lens": [20000]
	}`)
	waitFinished(t, srv, st.ID)
	// Subscribe only now: the whole run (item + sample frames, well over 4
	// events) already churned through the 4-slot ring.
	evs := readSSE(t, openEvents(t, srv, st.ID))
	if len(evs) == 0 {
		t.Fatal("empty event stream")
	}
	if evs[0].Type != "dropped" || evs[0].Dropped <= 0 {
		t.Fatalf("first event = %+v, want a dropped marker", evs[0])
	}
	if last := evs[len(evs)-1]; last.Type != "state" {
		t.Fatalf("last event = %+v, want the terminal state frame", last)
	}
	// dropped marker + at most ring-size retained events.
	if replayed := len(evs) - 1; replayed > 4 {
		t.Fatalf("replayed %d events from a 4-slot ring", replayed)
	}
}

func TestEventsUnknownJob(t *testing.T) {
	srv := startServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/v1/campaigns/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// FuzzSSEFrame is a differential target for the hand-written frame
// encoder: for any event, the frame's data field must be exactly the bytes
// json.Marshal writes for the Event, framed by its event and id fields and
// the blank line. An event json.Marshal rejects (a NaN or infinite IPC)
// must write nothing.
func FuzzSSEFrame(f *testing.F) {
	f.Add(int64(0), "item", 3, "wl|cdprf|iq32", "done", false, 1.25, "", false, int64(0))
	f.Add(int64(-1), "dropped", -1, "", "", false, 0.0, "", false, int64(17))
	f.Add(int64(9), "item", 0, "a<b>&c", "failed", false, 0.0, "bad \"spec\"\n\t\x01", false, int64(0))
	f.Add(int64(1), "item", 1, "ünïcode \u2028", "done", true, 5e-324, "\xff\xfe invalid utf-8", false, int64(0))
	f.Add(int64(2), "sample", 2, "x", "", false, 1e-7, "", true, int64(0))
	f.Add(int64(3), "item", 2, "x", "done", false, 1e21, "", false, int64(0))
	f.Add(int64(4), "item", 2, "x", "done", false, -123456789.125e-12, "", false, int64(0))
	f.Add(int64(5), "item", 2, "x", "done", false, math.NaN(), "", false, int64(0))
	f.Add(int64(6), "item", 2, "x", "done", false, math.Inf(1), "", true, int64(0))
	f.Add(int64(7), "item", 2, "x", "done", false, math.Inf(-1), "", false, int64(0))
	f.Fuzz(func(t *testing.T, seq int64, typ string, index int, label, state string, cached bool, ipc float64, errMsg string, sample bool, dropped int64) {
		e := Event{Seq: seq, Type: typ, Index: index, Label: label, State: State(state),
			Cached: cached, IPC: ipc, Error: errMsg, Dropped: dropped}
		if sample {
			e.Sample = &metrics.Sample{Cycle: seq, Window: 1000, Committed: uint64(index), IPC: ipc, IQOcc: 3.5}
		}
		var got bytes.Buffer
		writeSSE(&got, &e)
		data, err := json.Marshal(e)
		if err != nil {
			if got.Len() != 0 {
				t.Fatalf("json.Marshal rejects %+v (%v), yet a frame was written: %q", e, err, got.Bytes())
			}
			return
		}
		want := "event: " + typ + "\nid: " + strconv.FormatInt(seq, 10) + "\ndata: " + string(data) + "\n\n"
		if got.String() != want {
			t.Fatalf("frame for %+v:\ngot  %q\nwant %q", e, got.Bytes(), want)
		}
	})
}
