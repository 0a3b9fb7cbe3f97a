package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"pupil/internal/pipeline"
	"pupil/internal/server"
	"pupil/internal/sweep"
)

// serve runs pupild in this process on loopback, with an NDJSON telemetry
// sink to io.Discard as -telemetry-ndjson attaches one, and drives it over
// two client connections: one carries a seeded request mix, first open
// loop at a fixed rate and then closed loop, the other holds one NDJSON
// node stream.
const (
	serveNodes        = 16 // paced PUPiL nodes; the last serveThermal on the thermal platform
	serveThermal      = 4
	serveClusters     = 2
	serveClusterNodes = 4
	// serveRate is open-loop operations per second. About one operation
	// in eight of the mix is a create and delete pair of two requests, so
	// this is about 200 requests per second.
	serveRate   = 180
	serveClosed = 8000 // closed-loop operations
	serveWarmup = 200  // operations issued during set-up
	// serveWindow is how many closed-loop operations one throughput window
	// holds. The sustained rate is the median window's, so a burst of host
	// steal in a few windows does not move it.
	serveWindow    = 500
	serveSetupReps = 5
	serveSpans     = 1 << 18
	// serveTimeout fails a request that outlives it: far above any delay
	// host steal causes, so only a stuck request trips it.
	serveTimeout = 10 * time.Second
	// requestHeader carries the request id the traced handler span joins
	// its client span by.
	requestHeader = "X-Request-Id"
	nodeTick      = server.DefaultTickReal
	clusterTick   = server.DefaultClusterTickReal
)

// churnClusterNodes is the size of a cluster created and deleted by the
// mix, as pupilload's cluster churn creates them.
const churnClusterNodes = 2

// Request classes, as the ledger splits handler time. Reads and scrapes
// are the end-to-end read side, writes and lifecycle the write side.
const (
	classRead = iota
	classWrite
	classScrape
	classLifecycle
)

var classNames = []string{"read", "write", "scrape", "lifecycle"}

type opKind int

const (
	opNodeStatus opKind = iota
	opList
	opListClusters
	opClusterStatus
	opRecent
	opFaultInfo
	opMetrics
	opNodeCap
	opBudget
	opClusterNodeCap
	opFault
	opChurn        // create a node, then delete it
	opClusterChurn // create a cluster, then delete it
	nOps
)

// opWeights are the relative frequencies of the mix: the per-class
// request counts of the pupilload capacity profile committed in
// BENCH_load.json, whose clients issue every request class pupild serves.
// A create and delete pair weighs as many as the profile's creates.
// README.md in this directory derives each weight.
var opWeights = [nOps]int{1271, 538, 113, 379, 265, 84, 15, 607, 279, 177, 210, 407, 133}

var opClass = [nOps]int{classRead, classRead, classRead, classRead, classRead, classRead, classScrape,
	classWrite, classWrite, classWrite, classWrite, classLifecycle, classLifecycle}

// opRequests is how many requests an operation of each kind makes.
func opRequests(k opKind) int {
	if k == opChurn || k == opClusterChurn {
		return 2
	}
	return 1
}

// faultScenarios are short, valid sensor and actuator faults.
var faultScenarios = []server.FaultConfig{
	{Kind: "spike", Target: "power-sensor", DurationS: 1, Magnitude: 0.5},
	{Kind: "stuck", Target: "perf-sensor", DurationS: 1},
	{Kind: "dropout", Target: "power-sensor", DurationS: 1, Magnitude: 0.3},
	{Kind: "delay", Target: "config", DurationS: 1, Magnitude: 0.05},
}

// op is one generated request (two for opChurn) with its targets.
type op struct {
	kind           opKind
	node, cluster  int
	member, fault  int
	watts          float64
	createWorkload int
}

// plan generates n operations of the mix from the seed and a stream name,
// so set-up, open-loop and closed-loop phases draw independent sequences.
func plan(seed uint64, stream string, n int) []op {
	total := 0
	for _, w := range opWeights {
		total += w
	}
	r := rand.New(rand.NewSource(int64(sweep.Seed("perfbench/serve", stream) ^ seed)))
	out := make([]op, n)
	for i := range out {
		p, k := r.Intn(total), opKind(0)
		for ; p >= opWeights[k]; k++ {
			p -= opWeights[k]
		}
		o := op{kind: k, node: r.Intn(serveNodes), cluster: r.Intn(serveClusters),
			member: r.Intn(serveClusterNodes), fault: r.Intn(len(faultScenarios)),
			createWorkload: r.Intn(len(fleetApps))}
		switch k {
		case opNodeCap:
			o.watts = 80 + float64(r.Intn(1000))/10
		case opBudget:
			o.watts = serveClusterNodes * (90 + float64(r.Intn(800))/10)
		case opClusterNodeCap:
			o.watts = 60 + float64(r.Intn(1200))/10
		}
		out[i] = o
	}
	return out
}

// daemon is one in-process pupild and the client connections driving it.
type daemon struct {
	mgr      *server.Manager
	hs       *http.Server
	served   chan struct{}
	base     string
	client   *http.Client // the request connection
	streamC  *http.Client // the stream connection
	nodes    []string
	clusters []string
	seq      int64
	creates  int
}

// observation is one timed operation.
type observation struct {
	class      int
	latency    time.Duration // from the timing origin to the end of the body
	late       time.Duration // send time minus due time
	err        error
	req        int64
	from, done time.Time // the timing origin and the end of the body
}

// tracedSink records each batch the router hands the sink.
type tracedSink struct {
	pipeline.Sink
	rec *recorder
}

func (s *tracedSink) Write(batch []pipeline.Sample) error {
	id := s.rec.begin(kSinkWrite, -1, 0, 0)
	err := s.Sink.Write(batch)
	s.rec.end(id)
	return err
}

// traceHandler records a span per request that carries a request id.
func traceHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		if req == 0 {
			h.ServeHTTP(w, r) // the stream: not a timed request
			return
		}
		id := rec.begin(kHandler, -1, int16(req&7), req)
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

func boot(rec *recorder) (*daemon, error) {
	mgr := server.NewManager()
	var sink pipeline.Sink = pipeline.NewNDJSON(io.Discard)
	if rec != nil {
		sink = &tracedSink{Sink: sink, rec: rec}
	}
	if err := mgr.AddSink("ndjson", sink); err != nil {
		mgr.Close()
		return nil, err
	}
	var h http.Handler = server.New(mgr).Handler()
	if rec != nil {
		h = traceHandler(h, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		mgr:    mgr,
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: serveTimeout, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		streamC: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return d, nil
}

// close stops the server, waits for its goroutines and every node's.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // past the timeout, Close below still drains the nodes
	<-d.served
	d.client.CloseIdleConnections()
	d.streamC.CloseIdleConnections()
	d.mgr.Close()
}

// call issues one request and checks its status and body.
func (d *daemon) call(method, path string, body any, want int, out any, req int64) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	r, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	if req != 0 {
		r.Header.Set(requestHeader, strconv.FormatInt(req, 10))
	}
	resp, err := d.client.Do(r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	switch out := out.(type) {
	case nil:
	case *[]byte:
		*out = data
	default:
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding body: %w", method, path, err)
		}
	}
	return nil
}

func nodeConfig(i int) server.NodeConfig {
	cfg := server.NodeConfig{
		Name:      fmt.Sprintf("n%d", i),
		Technique: "PUPiL",
		CapWatts:  120,
		Seed:      uint64(i) + 1,
		Workloads: []server.WorkloadConfig{{Benchmark: fleetApps[i%len(fleetApps)], Threads: fleetThreads[i%len(fleetThreads)]}},
	}
	if i >= serveNodes-serveThermal {
		cfg.Platform, cfg.ThermalGovernor = "thermal", true
	}
	return cfg
}

// ramp creates the persistent fleet over HTTP.
func (d *daemon) ramp(seed uint64) error {
	for i := 0; i < serveNodes; i++ {
		cfg := nodeConfig(i)
		cfg.Seed ^= seed
		var st server.NodeStatus
		if err := d.call(http.MethodPost, "/v1/nodes", cfg, http.StatusCreated, &st, 0); err != nil {
			return err
		}
		d.nodes = append(d.nodes, st.ID)
	}
	for i := 0; i < serveClusters; i++ {
		var st server.ClusterStatus
		if err := d.call(http.MethodPost, "/v1/clusters", clusterConfig(fmt.Sprintf("c%d", i), serveClusterNodes, seed+uint64(i)),
			http.StatusCreated, &st, 0); err != nil {
			return err
		}
		d.clusters = append(d.clusters, st.ID)
	}
	return nil
}

// clusterConfig is a demand-shift cluster of n nodes at 120 W each.
func clusterConfig(name string, n int, seed uint64) server.ClusterConfig {
	members := make([]server.ClusterNodeConfig, n)
	for j := range members {
		members[j] = server.ClusterNodeConfig{Workloads: []server.WorkloadConfig{{Benchmark: fleetApps[j%len(fleetApps)], Threads: 8}}}
	}
	return server.ClusterConfig{Name: name, Nodes: members, BudgetWatts: float64(n) * 120, Policy: "demand-shift", Seed: seed}
}

// openLoop issues n operations, the i-th due at start + i*interval, each
// when it is due or, if the connection is still busy, as soon as the
// previous one has finished. issue learns whether the operation queued:
// whether the previous one still held the connection at its due time.
func openLoop(start time.Time, interval time.Duration, n int, issue func(i int, due time.Time, queued bool) observation) []observation {
	out := make([]observation, 0, n)
	var prevDone time.Time
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		ob := issue(i, due, prevDone.After(due))
		prevDone = ob.done
		out = append(out, ob)
	}
	return out
}

// timed is an operation's observation, its lateness from its due time to
// its send. A queued operation is timed from its due time, so a stall
// counts against each operation waiting behind it; one that found the
// connection idle is timed from its send, so a late timer wake-up — the
// generator's, not the server's — does not count.
func timed(class int, req int64, due, sent, done time.Time, queued bool, err error) observation {
	from := sent
	if queued {
		from = due
	}
	return observation{class: class, latency: done.Sub(from), late: sent.Sub(due), err: err, req: req, from: from, done: done}
}

// issue runs one operation that was due at due. Its request id carries
// its class in the low bits, for the traced handler.
func (d *daemon) issue(o op, due time.Time, queued bool) observation {
	d.seq++
	class := opClass[o.kind]
	req := d.seq<<3 | int64(class)
	sent := time.Now()
	err := d.perform(o, req)
	return timed(class, req, due, sent, time.Now(), queued, err)
}

func (d *daemon) perform(o op, req int64) error {
	node, cl := d.nodes[o.node], d.clusters[o.cluster]
	switch o.kind {
	case opNodeStatus:
		var st server.NodeStatus
		if err := d.call(http.MethodGet, "/v1/nodes/"+node, nil, http.StatusOK, &st, req); err != nil {
			return err
		}
		if st.ID != node {
			return fmt.Errorf("status of %s names %s", node, st.ID)
		}
	case opList:
		var l struct {
			Nodes []server.NodeStatus `json:"nodes"`
		}
		if err := d.call(http.MethodGet, "/v1/nodes", nil, http.StatusOK, &l, req); err != nil {
			return err
		}
		if len(l.Nodes) < serveNodes {
			return fmt.Errorf("list has %d nodes, want at least %d", len(l.Nodes), serveNodes)
		}
	case opListClusters:
		var l struct {
			Clusters []server.ClusterStatus `json:"clusters"`
		}
		if err := d.call(http.MethodGet, "/v1/clusters", nil, http.StatusOK, &l, req); err != nil {
			return err
		}
		if len(l.Clusters) < serveClusters {
			return fmt.Errorf("list has %d clusters, want at least %d", len(l.Clusters), serveClusters)
		}
	case opClusterStatus:
		var st server.ClusterStatus
		if err := d.call(http.MethodGet, "/v1/clusters/"+cl, nil, http.StatusOK, &st, req); err != nil {
			return err
		}
		if st.ID != cl {
			return fmt.Errorf("status of %s names %s", cl, st.ID)
		}
	case opRecent:
		var r struct {
			Samples []pipeline.Sample `json:"samples"`
		}
		if err := d.call(http.MethodGet, "/v1/telemetry/recent?max=64", nil, http.StatusOK, &r, req); err != nil {
			return err
		}
		if len(r.Samples) > 64 {
			return fmt.Errorf("recent returned %d samples, asked for at most 64", len(r.Samples))
		}
		for _, smp := range r.Samples {
			if smp.Family == "" || smp.Node == "" && smp.Cluster == "" {
				return fmt.Errorf("recent sample without a family or a source: %+v", smp)
			}
		}
	case opFaultInfo:
		var fi server.FaultInfo
		return d.call(http.MethodGet, "/v1/nodes/"+node+"/faults", nil, http.StatusOK, &fi, req)
	case opMetrics:
		var page []byte
		if err := d.call(http.MethodGet, "/metrics", nil, http.StatusOK, &page, req); err != nil {
			return err
		}
		for _, family := range []string{"pupil_power_watts", "pupil_temp_celsius", "pupil_cluster_budget_watts"} {
			if !bytes.Contains(page, []byte(family)) {
				return fmt.Errorf("/metrics lacks %s", family)
			}
		}
	case opNodeCap:
		var st server.NodeStatus
		if err := d.call(http.MethodPut, "/v1/nodes/"+node+"/cap", map[string]float64{"cap_watts": o.watts}, http.StatusOK, &st, req); err != nil {
			return err
		}
		if st.CapWatts != o.watts {
			return fmt.Errorf("cap of %s reads %g after setting %g", node, st.CapWatts, o.watts)
		}
	case opBudget:
		var st server.ClusterStatus
		if err := d.call(http.MethodPut, "/v1/clusters/"+cl+"/budget", map[string]float64{"budget_watts": o.watts}, http.StatusOK, &st, req); err != nil {
			return err
		}
		if st.BudgetWatts != o.watts {
			return fmt.Errorf("budget of %s reads %g after setting %g", cl, st.BudgetWatts, o.watts)
		}
	case opClusterNodeCap:
		// An epoch that completes between the write and the response
		// rebalances the caps, so the cap is checked only when the status
		// reports no epoch after the one before the write.
		c, ok := d.mgr.GetCluster(cl)
		if !ok {
			return fmt.Errorf("cluster %s is gone", cl)
		}
		epoch := c.Epoch()
		var st server.ClusterStatus
		if err := d.call(http.MethodPut, fmt.Sprintf("/v1/clusters/%s/nodes/%d/cap", cl, o.member),
			map[string]float64{"cap_watts": o.watts}, http.StatusOK, &st, req); err != nil {
			return err
		}
		if len(st.Nodes) != serveClusterNodes {
			return fmt.Errorf("status of %s has %d nodes, want %d", cl, len(st.Nodes), serveClusterNodes)
		}
		if got := st.Nodes[o.member].CapWatts; st.Epoch == epoch && got != o.watts {
			return fmt.Errorf("cap of %s node %d reads %g after setting %g", cl, o.member, got, o.watts)
		}
	case opFault:
		var fi server.FaultInfo
		if err := d.call(http.MethodPost, "/v1/nodes/"+node+"/faults", faultScenarios[o.fault], http.StatusCreated, &fi, req); err != nil {
			return err
		}
		if len(fi.Scenarios) == 0 {
			return fmt.Errorf("fault log of %s is empty after an injection", node)
		}
	case opChurn:
		d.creates++
		cfg := nodeConfig(o.createWorkload)
		cfg.Name = fmt.Sprintf("churn%d", d.creates)
		cfg.Platform, cfg.ThermalGovernor = "", false
		var st server.NodeStatus
		if err := d.call(http.MethodPost, "/v1/nodes", cfg, http.StatusCreated, &st, req); err != nil {
			return err
		}
		return d.call(http.MethodDelete, "/v1/nodes/"+st.ID, nil, http.StatusNoContent, nil, req)
	case opClusterChurn:
		d.creates++
		var st server.ClusterStatus
		if err := d.call(http.MethodPost, "/v1/clusters", clusterConfig(fmt.Sprintf("churn%d", d.creates), churnClusterNodes, uint64(d.creates)),
			http.StatusCreated, &st, req); err != nil {
			return err
		}
		if len(st.Nodes) != churnClusterNodes {
			return fmt.Errorf("new cluster %s has %d nodes, want %d", st.ID, len(st.Nodes), churnClusterNodes)
		}
		return d.call(http.MethodDelete, "/v1/clusters/"+st.ID, nil, http.StatusNoContent, nil, req)
	}
	return nil
}

// stream follows one node's NDJSON stream on the second connection.
type stream struct {
	cancel  context.CancelFunc
	done    chan struct{}
	samples int
	dropped uint64
	gapsMs  []float64
	err     error
}

func (d *daemon) openStream(node string) (*stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stream{cancel: cancel, done: make(chan struct{})}
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/nodes/"+node+"/stream?buffer=64", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The handler flushes the response header once the subscriber is
	// registered, so Do returns without waiting for a tick.
	resp, err := d.streamC.Do(r)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream %s: status %d", node, resp.StatusCode)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		var last time.Time
		for sc.Scan() {
			now := time.Now()
			var smp server.Sample
			if err := json.Unmarshal(sc.Bytes(), &smp); err != nil || smp.Node != node {
				s.err = fmt.Errorf("stream sample %q: %v", sc.Text(), err)
				return
			}
			if s.samples > 0 {
				s.gapsMs = append(s.gapsMs, float64(now.Sub(last))/1e6)
			}
			last = now
			s.samples++
			s.dropped = max(s.dropped, smp.Dropped)
		}
		if err := sc.Err(); err != nil && !errors.Is(err, context.Canceled) {
			s.err = err
		}
	}()
	return s, nil
}

func (s *stream) close() {
	s.cancel()
	<-s.done
}

// bootAndRamp is the workload's set-up: boot, ramp the fleet over HTTP,
// warm the request path with a closed-loop burst, and attach the stream.
func bootAndRamp(seed uint64, rec *recorder) (*daemon, *stream, error) {
	d, err := boot(rec)
	if err != nil {
		return nil, nil, err
	}
	if err := d.ramp(seed); err != nil {
		d.close()
		return nil, nil, fmt.Errorf("ramp: %w", err)
	}
	for _, o := range plan(seed, "warmup", serveWarmup) {
		if err := d.perform(o, 0); err != nil {
			d.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	s, err := d.openStream(d.nodes[0])
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d, s, nil
}

// servePass is one measured run: the open-loop phase, then the closed
// loop.
type servePass struct {
	open       []observation
	closedReqs int
	closedWall time.Duration
	// windowRPS is the closed loop's rate in each window of serveWindow
	// operations.
	windowRPS   []float64
	phase       phase
	tickDeficit float64
	published   uint64
	dropped     uint64
	stream      *stream
	digest      string
}

func measureServe(d *daemon, s *stream, seed uint64, seconds int, res *outcome) servePass {
	var p servePass
	h := sha256.New()
	epochs, epochsAt := d.epochs(), time.Now()
	pub0, drop0 := d.mgr.Router().Published(), d.mgr.Router().Dropped()
	before := takeSample()

	ops := plan(seed, "open", seconds*serveRate)
	start := time.Now()
	p.open = openLoop(start, time.Second/serveRate, len(ops), func(i int, due time.Time, queued bool) observation {
		return d.issue(ops[i], due, queued)
	})
	for i, ob := range p.open {
		fmt.Fprintf(h, "%d %t\n", ops[i].kind, ob.err == nil)
		if ob.err != nil {
			res.fail("open-loop %s request: %v", classNames[ob.class], ob.err)
		}
	}
	p.tickDeficit = d.tickDeficit(epochs, epochsAt)

	cstart := time.Now()
	wstart, wreqs := cstart, 0
	for i, o := range plan(seed, "closed", serveClosed) {
		n := opRequests(o.kind)
		p.closedReqs += n
		wreqs += n
		ob := d.issue(o, time.Now(), false)
		fmt.Fprintf(h, "%d %t\n", o.kind, ob.err == nil)
		if ob.err != nil {
			res.fail("closed-loop %s request: %v", classNames[ob.class], ob.err)
		}
		if (i+1)%serveWindow == 0 {
			now := time.Now()
			p.windowRPS = append(p.windowRPS, float64(wreqs)/now.Sub(wstart).Seconds())
			wstart, wreqs = now, 0
		}
	}
	p.closedWall = time.Since(cstart)
	p.phase = between(before, takeSample())
	p.published = d.mgr.Router().Published() - pub0
	p.dropped = d.mgr.Router().Dropped() - drop0
	p.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	s.close()
	p.stream = s
	if s.err != nil {
		res.fail("stream: %v", s.err)
	} else if s.samples == 0 {
		res.fail("stream: no sample in %.1f s", p.phase.wallS)
	}
	res.attempted += len(p.open) + serveClosed
	return p
}

// epochs snapshots every persistent node's and cluster's tick counter.
func (d *daemon) epochs() []uint64 {
	var out []uint64
	for _, id := range d.nodes {
		n, _ := d.mgr.Get(id)
		out = append(out, n.Epoch())
	}
	for _, id := range d.clusters {
		c, _ := d.mgr.GetCluster(id)
		out = append(out, c.Epoch())
	}
	return out
}

// tickDeficit is how many ticks the pacing owed the persistent fleet since
// the before snapshot was taken at since, minus the ticks it delivered.
// Tick phases are arbitrary, so each resource contributes up to ±1 even
// when its pacing keeps up.
func (d *daemon) tickDeficit(before []uint64, since time.Time) float64 {
	after, elapsed := d.epochs(), time.Since(since)
	var deficit float64
	for i := range after {
		tick := nodeTick
		if i >= len(d.nodes) {
			tick = clusterTick
		}
		deficit += float64(elapsed)/float64(tick) - float64(after[i]-before[i])
	}
	return deficit
}

// serveRep sets the daemon up serveSetupReps times, keeps the last, and
// measures it.
func serveRep(o options, rec *recorder, res *outcome, log io.Writer) (*rep, error) {
	var setups []float64
	var d *daemon
	var s *stream
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			s.close()
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, s, err = bootAndRamp(o.seed, rec); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	p := measureServe(d, s, o.seed, o.seconds, res)
	d.close()

	var all, reads, writes, late []float64
	for _, ob := range p.open {
		ms := float64(ob.latency) / 1e6
		all = append(all, ms)
		late = append(late, float64(ob.late)/1e6)
		if ob.class == classRead || ob.class == classScrape {
			reads = append(reads, ms)
		} else {
			writes = append(writes, ms)
		}
	}
	all, reads, writes, late = sorted(all), sorted(reads), sorted(writes), sorted(late)
	fmt.Fprintf(log, "samples open=%d reads=%d writes=%d closed=%d read_tail=%.3g write_tail=%.3g\n",
		len(all), len(reads), len(writes), p.closedReqs, tailQuantile(len(reads)), tailQuantile(len(writes)))
	fmt.Fprintf(log, "client late_p50_ms=%.3f late_p90_ms=%.3f closed_rps=%.0f tick_deficit=%.1f stream_samples=%d\n",
		quantile(late, 0.5), quantile(late, 0.9), float64(p.closedReqs)/p.closedWall.Seconds(), p.tickDeficit, p.stream.samples)
	r := &rep{setups: setups, phase: p.phase, digest: p.digest, e2e: map[string]float64{
		"wall_s":       p.closedWall.Seconds(),
		"cpu_s":        p.phase.cpuS,
		"epoch_p50_ms": quantile(all, 0.5),
		"epoch_p90_ms": quantile(all, 0.9),
		"read_p50_ms":  quantile(reads, 0.5),
		"read_p90_ms":  quantile(reads, 0.9),
		"write_p50_ms": quantile(writes, 0.5),
		"write_p90_ms": quantile(writes, 0.9),
		"peak_rps":     median(p.windowRPS),
	}}
	if rec == nil {
		return r, nil
	}

	for _, ob := range p.open {
		rec.add(span{start: int64(ob.from.Sub(rec.base)), end: int64(ob.done.Sub(rec.base)),
			req: ob.req, parent: -1, tag: int16(ob.class), kind: kClient})
	}
	t := tabulate(rec.recorded())
	m := ledger(t)
	m["server.tick_deficit"] = p.tickDeficit
	m["pipeline.published"] = float64(p.published)
	m["pipeline.dropped"] = float64(p.dropped)
	m["stream.samples"] = float64(p.stream.samples)
	m["stream.dropped"] = float64(p.stream.dropped)
	if len(p.stream.gapsMs) > 0 {
		m["stream.gap_ms"] = quantile(sorted(p.stream.gapsMs), 0.9)
	}
	m["client.late_ms"] = quantile(late, 0.9)
	r.table, r.ledger = t, m
	return r, nil
}
