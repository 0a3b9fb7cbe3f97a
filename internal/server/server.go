package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"pupil/internal/driver"
	"pupil/internal/faults"
	"pupil/internal/pipeline"
)

// Server is the HTTP control plane over a Manager.
type Server struct {
	mgr      *Manager
	mux      *http.ServeMux
	expo     *pipeline.Exposition
	requests atomic.Uint64
}

// New wires the API routes over the manager. Nodes and clusters share one
// route shape and one status-code taxonomy: 400 for a malformed body or an
// invalid value, 404 for an unknown resource, node index or domain, 409
// for a mutation on a resource that is no longer running.
func New(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.expo = newExposition(s)
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.Handle("GET /metrics", s.expo)
	s.mux.HandleFunc("GET /v1/telemetry/recent", s.handleRecent)

	node, cluster := find(mgr.Get), find(mgr.GetCluster)
	handle := s.mux.HandleFunc
	handle("POST /v1/nodes", create(mgr.Create, (*Node).Status))
	handle("GET /v1/nodes", list("nodes", mgr.Nodes, (*Node).Status))
	handle("GET /v1/nodes/{id}", read(node, (*Node).Status))
	handle("DELETE /v1/nodes/{id}", remove(mgr.Delete))
	handle("GET /v1/nodes/{id}/stream", stream(node, (*Node).Subscribe))
	handle("GET /v1/nodes/{id}/faults", read(node, (*Node).FaultInfo))
	handle("POST /v1/nodes/{id}/faults", write(node, http.StatusCreated, (*Node).InjectFault, (*Node).FaultInfo))
	handle("PUT /v1/nodes/{id}/cap", write(node, http.StatusOK, func(n *Node, b capBody) error {
		return n.SetCap(b.CapWatts)
	}, (*Node).Status))

	handle("POST /v1/clusters", create(mgr.CreateCluster, (*Cluster).Status))
	handle("GET /v1/clusters", list("clusters", mgr.Clusters, (*Cluster).Status))
	handle("GET /v1/clusters/{id}", read(cluster, (*Cluster).Status))
	handle("DELETE /v1/clusters/{id}", remove(mgr.DeleteCluster))
	handle("GET /v1/clusters/{id}/stream", stream(cluster, (*Cluster).Subscribe))
	handle("GET /v1/clusters/{id}/faults", read(cluster, (*Cluster).FaultInfo))
	handle("POST /v1/clusters/{id}/faults", write(cluster, http.StatusCreated, (*Cluster).InjectFault, (*Cluster).FaultInfo))
	handle("PUT /v1/clusters/{id}/budget", write(cluster, http.StatusOK, func(c *Cluster, b budgetBody) error {
		return c.SetBudget(b.BudgetWatts)
	}, (*Cluster).Status))
	handle("PUT /v1/clusters/{id}/nodes/{index}/cap", write(findClusterNode(cluster), http.StatusOK, func(m clusterNode, b capBody) error {
		return m.SetNodeCap(m.index, b.CapWatts)
	}, clusterNode.Status))
	return s
}

// capBody and budgetBody are the bodies of the cap and budget writes.
type capBody struct {
	CapWatts float64 `json:"cap_watts"`
}

type budgetBody struct {
	BudgetWatts float64 `json:"budget_watts"`
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

// writeError maps an error to its HTTP status: unknown node, cluster,
// node index or domain → 404, invalid request, cap, or fault scenario →
// 400, mutation on a finished node or cluster → 409, closed manager → 503.
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

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "nodes": s.mgr.Len()})
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
