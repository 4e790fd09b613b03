package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"clustersmt/internal/campaign"
	"clustersmt/internal/policy"
	"clustersmt/internal/report"
)

// maxManifestBytes bounds a submission body; manifests are small JSON
// documents and an unbounded read would let one client exhaust memory.
const maxManifestBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/campaigns                    submit a manifest (the same JSON the CLI takes), 202 + job status
//	GET    /v1/campaigns                    list jobs in submission order
//	GET    /v1/campaigns/{id}               job status; ?items=1 adds the per-item breakdown
//	GET    /v1/campaigns/{id}/results       finished job's ResultSet; ?format=json|csv (default json)
//	GET    /v1/campaigns/{id}/events        live job event stream (Server-Sent Events; see events.go)
//	DELETE /v1/campaigns/{id}               cancel (no-op once finished)
//	GET    /v1/components                   scheme component registries + named schemes (policy.ComponentSet)
//	GET    /metrics                         daemon operational metrics (Prometheus text format)
//	GET    /healthz                         liveness
//
// docs/API.md is the client-facing reference for this surface (request and
// response schemas, status codes, SSE frame format, metric names); CI
// cross-checks its route list against the registrations below.
//
// All error responses are JSON objects with an "error" field.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The component listing is what a client needs to author a manifest's
	// scheme_axes block (or a composed schemes entry) without the binary
	// at hand: every component, its parameters and their bounds.
	mux.HandleFunc("GET /v1/components", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, policy.Components())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Coordinator mode adds the fleet surface (worker registration, lease
	// dispatch, shared store) alongside the campaign API on one listener.
	if s.fleet != nil {
		s.fleet.Register(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	report.WriteJSON(w, v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxManifestBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxManifestBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "manifest exceeds %d bytes", maxManifestBytes)
		return
	}
	m, err := campaign.Parse(body)
	switch {
	case errors.Is(err, campaign.ErrTooManyItems):
		writeErr(w, http.StatusBadRequest, "%v", err) // a size limit, like 413
		return
	case err != nil:
		writeErr(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	st, err := s.Submit(m)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id, r.URL.Query().Get("items") != "")
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rs, exists, finished := s.Results(id)
	if !exists {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !finished {
		writeErr(w, http.StatusConflict, "job %s has not finished; poll GET /v1/campaigns/%s", id, id)
		return
	}
	if rs == nil {
		writeErr(w, http.StatusGone, "job %s was canceled before producing results", id)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, rs)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		report.WriteCSV(w, campaign.CSVHeader(), rs.CSVRows())
	default:
		writeErr(w, http.StatusBadRequest, "unknown format %q (json or csv)", format)
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Cancel(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
