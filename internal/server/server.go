package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"pupil/internal/driver"
	"pupil/internal/faults"
	"pupil/internal/pipeline"
)

// decodeStrict decodes exactly one JSON value from r into v: unknown fields
// and trailing data after the value are both rejected, so a request body is
// either the documented shape in full or a 400.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if err == nil {
			return errors.New("unexpected data after JSON body")
		}
		return err
	}
	return nil
}

// Server is the HTTP control plane over a Manager.
type Server struct {
	mgr      *Manager
	mux      *http.ServeMux
	expo     *pipeline.Exposition
	requests atomic.Uint64
}

// New wires the API routes over the manager.
func New(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.expo = newExposition(s)
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.Handle("GET /metrics", s.expo)
	s.mux.HandleFunc("GET /v1/telemetry/recent", s.handleRecent)
	s.mux.HandleFunc("POST /v1/nodes", s.handleCreate)
	s.mux.HandleFunc("GET /v1/nodes", s.handleList)
	s.mux.HandleFunc("GET /v1/nodes/{id}", s.handleGet)
	s.mux.HandleFunc("PUT /v1/nodes/{id}/cap", s.handleSetCap)
	s.mux.HandleFunc("DELETE /v1/nodes/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/nodes/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		if n, ok := s.node(w, r); ok {
			serveStream(w, r, &n.live)
		}
	})
	s.mux.HandleFunc("POST /v1/nodes/{id}/faults", s.handleInjectFault)
	s.mux.HandleFunc("GET /v1/nodes/{id}/faults", s.handleFaults)
	s.clusterRoutes()
	return s
}

// Handler returns the root handler (with the request-counting middleware
// the exporter reports).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// writeError maps an error to its HTTP status: unknown node → 404, invalid
// cap, config, or fault scenario → 400, mutation on a finished node → 409,
// closed manager → 503.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBadConfig), errors.Is(err, driver.ErrInvalidCap),
		errors.Is(err, faults.ErrInvalidScenario):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotRunning):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) node(w http.ResponseWriter, r *http.Request) (*Node, bool) {
	id := r.PathValue("id")
	n, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: %s", ErrNotFound, id))
		return nil, false
	}
	return n, true
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "nodes": s.mgr.Len()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg NodeConfig
	if err := decodeStrict(r.Body, &cfg); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
		return
	}
	n, err := s.mgr.Create(cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, n.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	nodes := s.mgr.Nodes()
	statuses := make([]NodeStatus, len(nodes))
	for i, n := range nodes {
		statuses[i] = n.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"nodes": statuses})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	n, ok := s.node(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, n.Status())
}

func (s *Server) handleSetCap(w http.ResponseWriter, r *http.Request) {
	n, ok := s.node(w, r)
	if !ok {
		return
	}
	var body struct {
		CapWatts float64 `json:"cap_watts"`
	}
	if err := decodeStrict(r.Body, &body); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
		return
	}
	if err := n.SetCap(body.CapWatts); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, n.Status())
}

// handleInjectFault schedules a fault on a running node. The body is one
// FaultConfig; onset is relative to the node's current simulated time.
// Invalid scenarios (unknown kind/target, negative durations, nonsense
// magnitudes) are rejected with 400 before touching the node.
func (s *Server) handleInjectFault(w http.ResponseWriter, r *http.Request) {
	n, ok := s.node(w, r)
	if !ok {
		return
	}
	var f FaultConfig
	if err := decodeStrict(r.Body, &f); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
		return
	}
	if err := n.InjectFault(f); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, n.FaultInfo())
}

// handleFaults reports a node's scheduled faults and observed transitions.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	n, ok := s.node(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, n.FaultInfo())
}

// handleRecent reports the newest samples the manager's in-memory ring
// sink has retained from the pipeline, oldest first. ?max=N trims to the
// newest N.
func (s *Server) handleRecent(w http.ResponseWriter, r *http.Request) {
	max, ok := positiveParam(w, r, "max", 0)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"samples": s.mgr.Recent(max)})
}

// positiveParam parses the positive integer query parameter name, def when
// it is absent; a malformed value is answered with a 400.
func positiveParam(w http.ResponseWriter, r *http.Request, name string, def int) (int, bool) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		writeError(w, fmt.Errorf("%w: bad %s %q", ErrBadConfig, name, v))
		return 0, false
	}
	return n, true
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.Delete(id); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxStreamBuffer caps a stream's ?buffer=, in samples. The subscriber's
// channel is allocated whole at subscribe time, so an unbounded value lets
// one request claim any amount of memory; the largest in-repo client asks
// for 1024.
const maxStreamBuffer = 4096

// serveStream pushes a live resource's samples as newline-delimited JSON
// until the client disconnects, the resource stops, or ?max=N samples have
// been sent. ?buffer=N sizes the subscriber's ring buffer (default 64, at
// most maxStreamBuffer); a consumer slower than the tick rate loses the
// oldest samples, reported in each record's dropped counter.
func serveStream[S interface{ withDropped(uint64) S }](w http.ResponseWriter, r *http.Request, l *live[S]) {
	buffer, ok := positiveParam(w, r, "buffer", 64)
	if !ok {
		return
	}
	if buffer > maxStreamBuffer {
		writeError(w, fmt.Errorf("%w: buffer %d exceeds the maximum of %d samples", ErrBadConfig, buffer, maxStreamBuffer))
		return
	}
	max, ok := positiveParam(w, r, "max", 0)
	if !ok {
		return
	}

	sub := l.Subscribe(buffer)
	defer sub.Cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Flush the response header immediately: the subscriber is
		// registered, and a client must be able to observe that before
		// the first sample arrives (an idle resource may not tick for a
		// while).
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case smp, open := <-sub.C():
			if !open {
				return
			}
			if err := enc.Encode(smp.withDropped(sub.Dropped())); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent++
			if max > 0 && sent >= max {
				return
			}
		}
	}
}
