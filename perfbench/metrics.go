package main

// endToEnd declares the metrics an untraced run reports, with their units.
// Every workload reports every one; what each means on each workload is
// tabulated in README.md.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"wall_s":       "s",
	"cpu_s":        "s",
	"rss_peak_mb":  "MB",
	"epoch_p50_ms": "ms",
	"read_p50_ms":  "ms",
	"write_p50_ms": "ms",
}

// perLayer declares the ledger a traced run reports. A layer idle on a
// workload reads 0 there.
var perLayer = map[string]string{
	// The end-to-end tails and the closed-loop rate, from the traced run's
	// untraced repetition. Host steal moves them more than any bound a
	// change could be held to, so they are reported but not gated.
	"epoch_p90_ms": "ms",
	"read_p90_ms":  "ms",
	"write_p90_ms": "ms",
	"peak_rps":     "1/s",

	"sweep.busy_frac":       "ratio",
	"driver.build_ms":       "ms",
	"driver.result_ms":      "ms",
	"driver.kernel_self_s":  "s",
	"core.decisions":        "count",
	"core.decide_us":        "us",
	"core.env.set_config":   "count",
	"core.env.set_rapl":     "count",
	"telemetry.feedback_us": "us",
	"control.optimal_ms":    "ms",
	"control.train_ms":      "ms",

	"cluster.step_ms":                "ms",
	"cluster.snapshot_ms":            "ms",
	"cluster.node_self_ms":           "ms",
	"cluster.policy_calls":           "count",
	"cluster.policy_us":              "us",
	"runtime.heap_kb_per_node_sim_s": "KB/node/s",

	"server.handler_ms.read":      "ms",
	"server.handler_ms.write":     "ms",
	"server.handler_ms.scrape":    "ms",
	"server.handler_ms.lifecycle": "ms",
	"server.outside_ms":           "ms",
	"server.tick_deficit":         "count",
	"pipeline.published":          "count",
	"pipeline.dropped":            "count",
	"pipeline.sink_write_us":      "us",
	"stream.samples":              "count",
	"stream.dropped":              "count",
	"stream.gap_ms":               "ms",
	"client.late_ms":              "ms",

	"runtime.alloc_mb":     "MB",
	"runtime.gc_cycles":    "count",
	"runtime.gc_cpu_frac":  "ratio",
	"host.steal_s":         "s",
	"trace.spans":          "count",
	"trace.lost":           "count",
	"trace.overhead_cpu_s": "s",
}

func init() {
	for _, tech := range techniques {
		perLayer["driver.advance_us_per_sim_s."+tech] = "us/s"
		perLayer["core.decisions."+tech] = "count"
	}
}
