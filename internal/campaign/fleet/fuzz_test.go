package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"clustersmt/internal/campaign"
)

// FuzzWorkerAPI drives the worker routes — register, heartbeat, lease and
// complete — with arbitrary bodies against a coordinator holding one task
// leased to a registered worker and one pending. Each leased task's outcome
// is assembled into a result row, as the engine would. No body may panic a
// handler or the row assembly, or draw a status outside the set docs/API.md
// documents for the route, and a well-formed lease still succeeds
// afterwards.
func FuzzWorkerAPI(f *testing.F) {
	f.Add(uint8(2), []byte(`{"max":68719476736}`))
	f.Add(uint8(3), []byte(`{"id":"t1","attempt":1,"executed":true,"stats":{"Cycles":1}}`))
	f.Add(uint8(3), []byte(`{"id":"t1","attempt":1,"executed":true}`))
	f.Add(uint8(3), []byte(`{"id":"t1","attempt":1,"error":"boom"}`))
	f.Add(uint8(3), []byte(`{"id":"t1","attempt":2,"executed":true,"stats":{}}`))
	f.Add(uint8(2), []byte(`{"max":-1}`))
	f.Add(uint8(1), []byte(``))
	f.Add(uint8(0), []byte(`{"name":"box"}`))
	f.Add(uint8(0), []byte(`{"name":`))

	m, err := campaign.Parse([]byte(`{"workloads":["dh.ilp.2.1"],"schemes":["icount"],"trace_lens":[1000]}`))
	if err != nil {
		f.Fatal(err)
	}
	plan, err := campaign.NewPlan(m)
	if err != nil {
		f.Fatal(err)
	}
	item := plan.Items[0]

	type route struct {
		path  string
		codes []int
	}
	routes := []route{
		{"/v1/workers", []int{http.StatusOK, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity}},
		{"/v1/workers/w000001/heartbeat", []int{http.StatusNoContent, http.StatusNotFound}},
		{"/v1/workers/w000001/lease", []int{http.StatusOK, http.StatusNotFound, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusServiceUnavailable}},
		{"/v1/workers/w000001/complete", []int{http.StatusOK, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity}},
	}
	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}

	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		c := NewCoordinator(Config{PollInterval: time.Millisecond, MaxAttempts: 2, RetryBase: time.Millisecond, RetryCap: time.Millisecond})
		h := c.Handler()
		assemble := func(o Outcome) { plan.Result(0, "", o.Stats, o.Executed, o.Err) }
		for _, id := range []string{"t1", "t2"} {
			if err := c.queue.Add(Task{ID: id, TraceLen: item.TraceLen, Spec: item.Spec}, assemble); err != nil {
				t.Fatal(err)
			}
		}
		if rec := post(h, "/v1/workers", []byte(`{"name":"fuzz"}`)); rec.Code != http.StatusOK {
			t.Fatalf("register: %d", rec.Code)
		}
		if rec := post(h, "/v1/workers/w000001/lease", []byte(`{"max":1}`)); rec.Code != http.StatusOK {
			t.Fatalf("setup lease: %d", rec.Code)
		}

		r := routes[int(sel)%len(routes)]
		if rec := post(h, r.path, body); !slices.Contains(r.codes, rec.Code) {
			t.Fatalf("POST %s %q: status %d, documented %v", r.path, body, rec.Code, r.codes)
		}

		rec := post(h, "/v1/workers/w000001/lease", []byte(`{"max":1}`))
		var lr LeaseResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &lr) != nil {
			t.Fatalf("well-formed lease after POST %s %q: status %d, body %s", r.path, body, rec.Code, rec.Body)
		}
	})
}
