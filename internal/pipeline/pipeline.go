// Package pipeline is the telemetry subsystem behind pupild's exporters:
// typed Samples pushed through a router to sinks, plus the Prometheus text
// page that collectors render at scrape time.
//
// The Router fans published samples out to any number of Sinks. Each sink
// subscribes to one telemetry.Fanout with its own bounded queue, drained
// by a worker goroutine in batches: a stalled sink drops samples (counted,
// holding the publisher at most 100 ms per stall), and Close stops intake,
// drains every queue in publish order, flushes, and closes the sinks.
// Sinks serialize batches: NDJSON streams, an in-memory ring for tests and
// the /v1/telemetry/recent endpoint, and CSV experiment artifacts. The
// Prometheus text Exposition page is not a sink: it gathers its Collectors
// at scrape time.
//
// Zone-labeled samples carry RAPL-style power zones ("package_0",
// "package_0_core", "package_0_dram") so subsystem-level families such as
// pupil_power_watts{zone="..."} flow end-to-end from the machine model to
// the exposition endpoint.
package pipeline

// Kind is a metric family's Prometheus type.
type Kind int

// Metric kinds, in exposition vocabulary.
const (
	Gauge Kind = iota
	Counter
)

// String returns the exposition-format type name.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// MetricFamily declares one named series family: its exposition name, help
// text, and kind. Collectors declare their families up front so the
// exposition page can emit headers even for families with no samples yet.
type MetricFamily struct {
	Name string
	Help string
	Kind Kind
}

// Sample is one typed telemetry record: a family name, the label set
// identifying the series within it, the simulated timestamp it was taken
// at, and the value. Zero-valued labels are omitted everywhere a sample is
// serialized.
type Sample struct {
	// Family is the metric family name, e.g. "pupil_power_watts".
	Family string `json:"family"`
	// Cluster, Domain, Node, State, Zone, and Sink are the label set, in
	// the label order sinks serialize. Domain names a cluster's budget
	// domain ("dc", "row0", "rack3") for hierarchical coordination
	// families; State carries a node's health state ("healthy", "suspect",
	// "quarantined", "recovering") on fleet fault-tolerance families; Zone
	// carries RAPL-style power zones ("package_0", "package_0_core",
	// "package_0_dram"); Sink labels the router's own accounting families.
	Cluster string `json:"cluster,omitempty"`
	Domain  string `json:"domain,omitempty"`
	Node    string `json:"node,omitempty"`
	State   string `json:"state,omitempty"`
	Zone    string `json:"zone,omitempty"`
	Sink    string `json:"sink,omitempty"`
	// SimS is the simulated time the sample was taken at, in seconds.
	SimS float64 `json:"sim_s"`
	// Value is the observation.
	Value float64 `json:"value"`
}

// Collector turns a live source into samples on demand — an Exposition
// gatherer. Families declares every family Collect may emit, in
// presentation order; Collect appends the current samples to out and
// returns the extended slice, so callers can reuse one scratch buffer
// across gathers.
type Collector interface {
	Families() []MetricFamily
	Collect(out []Sample) []Sample
}

// Sink receives sample batches from the router. Write owns nothing: the
// batch slice is reused by the caller after Write returns, so a sink that
// retains samples must copy them. Flush forces buffered output down;
// Close releases resources. The router serializes all three per sink.
type Sink interface {
	Write(batch []Sample) error
	Flush() error
	Close() error
}
