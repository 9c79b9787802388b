// Package server is the HTTP face of the serving layer: it maps the jobs
// manager onto a small JSON API with NDJSON progress streaming and a
// Prometheus text metrics endpoint, all on net/http.
//
//	POST   /v1/jobs             submit a spec (202 fresh, 200 coalesced)
//	GET    /v1/jobs             list jobs (results elided; ?state= filters)
//	GET    /v1/jobs/{id}        fetch one job, result included when done
//	GET    /v1/jobs/{id}/events NDJSON stream: history, then live events
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             process liveness (always 200)
//	GET    /readyz              503 until warm, and again while draining
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"tafpga/internal/jobs"
	"tafpga/internal/obs"
)

// Server wires a jobs.Manager and an obs.Registry to HTTP routes.
type Server struct {
	mgr      *jobs.Manager
	reg      *obs.Registry
	ready    atomic.Bool
	draining atomic.Bool
	requests *obs.Counter
	errs     *obs.Counter
}

// New builds a Server over mgr, registering its own HTTP metrics on reg.
// The server starts unready; the daemon flips it after warming the device
// library.
func New(mgr *jobs.Manager, reg *obs.Registry) *Server {
	return &Server{
		mgr:      mgr,
		reg:      reg,
		requests: reg.Counter("tafpgad_http_requests_total", "API requests served, any route or status."),
		errs:     reg.Counter("tafpgad_http_errors_total", "API requests answered with a 4xx or 5xx status."),
	}
}

// SetReady flips the /readyz signal (true once the device library is warm).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// SetDraining marks shutdown in progress: /readyz goes 503 so load
// balancers stop routing here while in-flight jobs finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.events)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		switch {
		case s.draining.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
		case !s.ready.Load():
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "warming")
		default:
			fmt.Fprintln(w, "ready")
		}
	})
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// submitResponse is a job view plus whether the submission coalesced onto
// an existing queued or running job.
type submitResponse struct {
	jobs.View
	Deduped bool `json:"deduped"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	if status >= 400 {
		s.errs.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v) // nothing to do about a write error this late
}

func (s *Server) failJSON(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, apiError{Error: err.Error()})
}

// submit handles POST /v1/jobs: decode, validate via the manager, map its
// sentinel errors to statuses. A coalesced duplicate answers 200 with the
// existing job; a fresh submission answers 202 Accepted.
func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.failJSON(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	v, deduped, err := s.mgr.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.failJSON(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrDraining):
		s.failJSON(w, http.StatusServiceUnavailable, err)
	case err != nil:
		s.failJSON(w, http.StatusBadRequest, err)
	case deduped:
		s.writeJSON(w, http.StatusOK, submitResponse{View: v, Deduped: true})
	default:
		s.writeJSON(w, http.StatusAccepted, submitResponse{View: v, Deduped: false})
	}
}

// list answers GET /v1/jobs, optionally filtered to one lifecycle state by
// ?state= (queued, running, done, failed, cancelled) — the cheap
// polling path for load generators and operators.
func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	state, err := jobs.ParseState(r.URL.Query().Get("state"))
	if err != nil {
		s.failJSON(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.mgr.ListState(state))
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	v, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		s.failJSON(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	s.writeJSON(w, http.StatusOK, v)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	v, err := s.mgr.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		s.failJSON(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrFinished):
		s.failJSON(w, http.StatusConflict, err)
	case err != nil:
		s.failJSON(w, http.StatusInternalServerError, err)
	default:
		s.writeJSON(w, http.StatusOK, v)
	}
}

// events streams a job's history and then its live events as NDJSON, one
// Event per line, ending when the job reaches a terminal state or the
// client goes away. Every line is flushed so watchers see Algorithm-1
// iterations as they converge.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	history, live, unsubscribe, err := s.mgr.Subscribe(r.PathValue("id"))
	if err != nil {
		s.failJSON(w, http.StatusNotFound, err)
		return
	}
	defer unsubscribe()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(e jobs.Event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, e := range history {
		if !emit(e) {
			return
		}
	}
	for {
		select {
		case e, ok := <-live:
			if !ok { // terminal event delivered, stream complete
				return
			}
			if !emit(e) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// metrics renders the registry in Prometheus text exposition format.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
