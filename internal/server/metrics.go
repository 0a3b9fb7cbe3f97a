package server

import "pupil/internal/pipeline"

// The exporter follows the Prometheus text exposition conventions of the
// RAPL-exporter exemplar: one HELP/TYPE header per family, one sample per
// node labeled node="<id>", plus server-level counters. Rendering is done
// by the pipeline's Exposition page: the collectors in collectors.go
// gather live NodeStatus/ClusterStatus snapshots at scrape time, and the
// page appends the router's own published/written/dropped accounting.

// newExposition assembles the /metrics page: node families, cluster
// families, pipeline self-accounting, request counter — in that order.
func newExposition(s *Server) *pipeline.Exposition {
	expo := pipeline.NewExposition()
	expo.AddGatherer(nodeCollector{mgr: s.mgr})
	// Thermal families render only when a live node carries thermal state,
	// so thermal-free deployments scrape the exact pre-thermal page.
	expo.AddGatherer(thermalCollector{mgr: s.mgr})
	expo.AddGatherer(clusterCollector{mgr: s.mgr})
	expo.AddGatherer(s.mgr.Router().StatsCollector())
	expo.AddGatherer(httpCollector{s: s})
	return expo
}
