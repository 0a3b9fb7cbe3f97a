package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// The cluster API mirrors the node API one level up: create a cluster from
// a node list + policy + budget, read its state, retune the global budget
// or one node's share live, stream per-epoch snapshots as NDJSON, delete
// it. Status-code mapping is identical (400 bad config/cap, 404 unknown
// cluster or node index, 409 mutation on a finished cluster).

func (s *Server) clusterRoutes() {
	s.mux.HandleFunc("POST /v1/clusters", s.handleCreateCluster)
	s.mux.HandleFunc("GET /v1/clusters", s.handleListClusters)
	s.mux.HandleFunc("GET /v1/clusters/{id}", s.handleGetCluster)
	s.mux.HandleFunc("PUT /v1/clusters/{id}/budget", s.handleSetBudget)
	s.mux.HandleFunc("PUT /v1/clusters/{id}/nodes/{index}/cap", s.handleSetClusterNodeCap)
	s.mux.HandleFunc("DELETE /v1/clusters/{id}", s.handleDeleteCluster)
	s.mux.HandleFunc("GET /v1/clusters/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		if c, ok := s.clusterOf(w, r); ok {
			serveStream(w, r, &c.live)
		}
	})
	s.mux.HandleFunc("POST /v1/clusters/{id}/faults", s.handleInjectClusterFault)
	s.mux.HandleFunc("GET /v1/clusters/{id}/faults", s.handleClusterFaults)
}

func (s *Server) clusterOf(w http.ResponseWriter, r *http.Request) (*Cluster, bool) {
	id := r.PathValue("id")
	c, ok := s.mgr.GetCluster(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: %s", ErrNotFound, id))
		return nil, false
	}
	return c, true
}

func (s *Server) handleCreateCluster(w http.ResponseWriter, r *http.Request) {
	var cfg ClusterConfig
	if err := decodeStrict(r.Body, &cfg); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
		return
	}
	c, err := s.mgr.CreateCluster(cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Status())
}

func (s *Server) handleListClusters(w http.ResponseWriter, _ *http.Request) {
	clusters := s.mgr.Clusters()
	statuses := make([]ClusterStatus, len(clusters))
	for i, c := range clusters {
		statuses[i] = c.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"clusters": statuses})
}

func (s *Server) handleGetCluster(w http.ResponseWriter, r *http.Request) {
	c, ok := s.clusterOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) handleSetBudget(w http.ResponseWriter, r *http.Request) {
	c, ok := s.clusterOf(w, r)
	if !ok {
		return
	}
	var body struct {
		BudgetWatts float64 `json:"budget_watts"`
	}
	if err := decodeStrict(r.Body, &body); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
		return
	}
	if err := c.SetBudget(body.BudgetWatts); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

func (s *Server) handleSetClusterNodeCap(w http.ResponseWriter, r *http.Request) {
	c, ok := s.clusterOf(w, r)
	if !ok {
		return
	}
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeError(w, fmt.Errorf("%w: bad node index %q", ErrBadConfig, r.PathValue("index")))
		return
	}
	var body struct {
		CapWatts float64 `json:"cap_watts"`
	}
	if err := decodeStrict(r.Body, &body); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
		return
	}
	if err := c.SetNodeCap(idx, body.CapWatts); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// handleInjectClusterFault schedules a fault against one node or a whole
// budget domain of a running cluster — the cluster-level mirror of POST
// /v1/nodes/{id}/faults, with the same status-code taxonomy (400 invalid
// scenario or target, 404 unknown node index or domain, 409 not running).
func (s *Server) handleInjectClusterFault(w http.ResponseWriter, r *http.Request) {
	c, ok := s.clusterOf(w, r)
	if !ok {
		return
	}
	var f ClusterFaultConfig
	if err := decodeStrict(r.Body, &f); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
		return
	}
	if err := c.InjectFault(f); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, c.FaultInfo())
}

func (s *Server) handleClusterFaults(w http.ResponseWriter, r *http.Request) {
	c, ok := s.clusterOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.FaultInfo())
}

func (s *Server) handleDeleteCluster(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.mgr.DeleteCluster(id); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
