package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersmt/internal/campaign/fleet"
	"clustersmt/internal/experiments"
	"clustersmt/internal/metrics"
)

// probe records calls into the store and over HTTP while it is on. Off, the
// decorators below pass every call straight through after one atomic load,
// which is how untraced submissions run.
type probe struct {
	on atomic.Bool
	t0 time.Time

	// httpFailed counts failed HTTP calls, traced or not: fleet workers
	// retry a failed lease, completion or remote-store call without
	// reporting it, so this is the only place such failures show.
	httpFailed atomic.Int64

	mu    sync.Mutex
	store []storeOp
	http  []httpOp
}

func newProbe() *probe { return &probe{t0: time.Now()} }

// now is the probe clock: time since the probe was created.
func (p *probe) now() time.Duration { return time.Since(p.t0) }

// at converts a wall-clock instant (a JobStatus timestamp) to the probe clock.
func (p *probe) at(t time.Time) time.Duration { return t.Sub(p.t0) }

// drain returns and clears everything recorded so far.
func (p *probe) drain() ([]storeOp, []httpOp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, h := p.store, p.http
	p.store, p.http = nil, nil
	return s, h
}

// storeOp is one Get or Put on a probed result store.
type storeOp struct {
	put        bool
	key        string
	start, end time.Duration
	err        bool
}

// probedStore is the ResultStore decorator: it times every Get and Put on
// the wrapped store.
type probedStore struct {
	inner experiments.ResultStore
	p     *probe
}

func (s *probedStore) Get(key string) (*metrics.Stats, bool, error) {
	if !s.p.on.Load() {
		return s.inner.Get(key)
	}
	start := s.p.now()
	st, ok, err := s.inner.Get(key)
	s.record(storeOp{key: key, start: start, end: s.p.now(), err: err != nil})
	return st, ok, err
}

func (s *probedStore) Put(key string, st *metrics.Stats) error {
	if !s.p.on.Load() {
		return s.inner.Put(key, st)
	}
	start := s.p.now()
	err := s.inner.Put(key, st)
	s.record(storeOp{put: true, key: key, start: start, end: s.p.now(), err: err != nil})
	return err
}

func (s *probedStore) record(op storeOp) {
	s.p.mu.Lock()
	s.p.store = append(s.p.store, op)
	s.p.mu.Unlock()
}

// httpOp is one HTTP exchange through a probed transport. end is when the
// response body was fully read or closed.
type httpOp struct {
	kind       string // submit, events, results, status, lease, complete, store_get, store_put, other
	worker     string // fleet worker ID for worker routes
	key        string // store key for /v1/store routes
	start, end time.Duration
	tasks      int   // tasks granted, for lease
	bytes      int64 // response body bytes
	err        bool  // transport error, error status or undecodable lease
}

// probedTransport is the http.RoundTripper decorator used by the benchmark
// client and by every fleet worker.
type probedTransport struct {
	inner http.RoundTripper
	p     *probe
}

// classify names the API route a request targets.
func classify(r *http.Request) (kind, worker, key string) {
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, "/v1/store/"):
		key = strings.TrimPrefix(path, "/v1/store/")
		if r.Method == http.MethodPut {
			return "store_put", "", key
		}
		return "store_get", "", key
	case strings.HasPrefix(path, "/v1/workers/"):
		rest := strings.TrimPrefix(path, "/v1/workers/")
		id, action, _ := strings.Cut(rest, "/")
		switch action {
		case "lease", "complete":
			return action, id, ""
		}
		return "other", id, ""
	case path == "/v1/campaigns" && r.Method == http.MethodPost:
		return "submit", "", ""
	case strings.HasSuffix(path, "/events"):
		return "events", "", ""
	case strings.HasSuffix(path, "/results"):
		return "results", "", ""
	case strings.HasPrefix(path, "/v1/campaigns/"):
		return "status", "", ""
	}
	return "other", "", ""
}

// errorStatus reports whether a response status means a failed call to a
// route of the given kind. A store GET answering 404 is a miss, not a
// failure.
func errorStatus(kind string, code int) bool {
	return code >= 400 && !(kind == "store_get" && code == http.StatusNotFound)
}

func (t *probedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.p.on.Load() {
		resp, err := t.inner.RoundTrip(req)
		if err != nil || resp.StatusCode >= 400 {
			if kind, _, _ := classify(req); err != nil || errorStatus(kind, resp.StatusCode) {
				t.p.httpFailed.Add(1)
			}
		}
		return resp, err
	}
	op := httpOp{start: t.p.now()}
	op.kind, op.worker, op.key = classify(req)
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		op.end, op.err = t.p.now(), true
		t.record(op)
		return nil, err
	}
	op.err = errorStatus(op.kind, resp.StatusCode)
	if op.kind == "lease" && resp.StatusCode == http.StatusOK {
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(b))
		var lr fleet.LeaseResponse
		if rerr != nil || json.Unmarshal(b, &lr) != nil {
			op.err = true
		}
		op.tasks, op.bytes, op.end = len(lr.Tasks), int64(len(b)), t.p.now()
		t.record(op)
		return resp, nil
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		op.bytes, op.end = n, t.p.now()
		t.record(op)
	}}
	return resp, nil
}

func (t *probedTransport) record(op httpOp) {
	if op.err {
		t.p.httpFailed.Add(1)
	}
	t.p.mu.Lock()
	t.p.http = append(t.p.http, op)
	t.p.mu.Unlock()
}

// timedBody reports the byte count once, at EOF or Close, whichever comes
// first.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}
