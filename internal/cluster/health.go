package cluster

// Fleet fault tolerance: a per-node health state machine layered over the
// budget tree. A naive coordinator assumes every node is healthy, so a
// crashed or wedged node silently keeps its budget share — watts the rest
// of the rack could convert into work (FastCap's fairness argument, and
// the failure class ControlPULP's joint supervision handles). The health
// layer watches what a real coordinator could observe about its members —
// whether the step RPC returned (a crashed/hung node does not step),
// recovered session panics, a demand report frozen bit-identical across
// epochs, demand sustained far above the assigned cap — and walks each
// node through healthy → suspect → quarantined → recovering.
//
// Quarantine reclaims the node's budget down to the safety floor: the
// node is pinned at FloorWatts (enough to keep its firmware reachable for
// probes), its demand contribution to parent-level aggregation is clamped
// to the floor, and the leaf's remaining budget is re-split across its
// healthy members through the ordinary policy + floor normalization — so
// every per-level sum and floor invariant holds by the same induction as
// the healthy path. Recovery probes re-admit the node: after a quarantine
// dwell it is observed at the floor for RecoverEpochs consecutive clean
// epochs, then rejoins the policy split (the next rebalance lifts it);
// each failed probe doubles the dwell up to MaxBackoffEpochs, so a
// flapping node converges to rare probes instead of thrashing the budget.

import (
	"fmt"
	"math"
	"time"
)

// HealthState is a node's position in the fault-tolerance state machine.
type HealthState uint8

// Health states, in escalation order.
const (
	// Healthy nodes participate fully in the policy split.
	Healthy HealthState = iota
	// Suspect nodes showed a bad signal but keep their budget; the streak
	// either clears or escalates to quarantine.
	Suspect
	// Quarantined nodes are pinned at the floor, their reclaimed budget
	// redistributed, waiting out the probe backoff.
	Quarantined
	// Recovering nodes are being probed: still at the floor, re-admitted
	// after RecoverEpochs consecutive clean epochs.
	Recovering
)

// String returns the state's API name.
func (s HealthState) String() string {
	switch s {
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Recovering:
		return "recovering"
	default:
		return "healthy"
	}
}

// HealthConfig enables and tunes fleet health tracking; the zero value of
// every field selects its default. A nil *HealthConfig in Config keeps
// the naive coordinator: no tracking, no quarantine, byte-identical
// behavior to previous releases.
type HealthConfig struct {
	// SuspectEpochs is how many consecutive bad epochs quarantine a node
	// (the first bad epoch marks it suspect). Default 2.
	SuspectEpochs int
	// RecoverEpochs is how many consecutive clean probe epochs re-admit a
	// recovering node. Default 2.
	RecoverEpochs int
	// ProbeAfterEpochs is the initial quarantine dwell before the first
	// recovery probe; each failed probe doubles it. Default 2.
	ProbeAfterEpochs int
	// MaxBackoffEpochs caps the doubling. Default 16.
	MaxBackoffEpochs int
	// OverCapFrac flags an epoch as bad when the node's reported demand
	// exceeds its assigned cap times this factor — a lying demand signal
	// or a capper that lost control. The default 1.5 leaves headroom for
	// the boot-epoch settling transient (a node's first epoch can average
	// ~1.25x its cap while the firmware converges); benched nodes are
	// exempt, since a probe pinned at the floor sits below the machine's
	// idle draw by design.
	OverCapFrac float64
	// StaleEpochs, when positive, flags an epoch as bad once the demand
	// report has been bit-identical for that many consecutive epochs — a
	// wedged reporting path on a node that otherwise steps. Disabled by
	// default (0): this simulation's ground-truth mean power converges
	// bit-exactly at steady state, so frozen-report detection is opt-in
	// for deployments whose demand reports carry measurement noise.
	StaleEpochs int
}

// withDefaults fills unset fields.
func (hc HealthConfig) withDefaults() HealthConfig {
	if hc.SuspectEpochs <= 0 {
		hc.SuspectEpochs = 2
	}
	if hc.RecoverEpochs <= 0 {
		hc.RecoverEpochs = 2
	}
	if hc.ProbeAfterEpochs <= 0 {
		hc.ProbeAfterEpochs = 2
	}
	if hc.MaxBackoffEpochs <= 0 {
		hc.MaxBackoffEpochs = 16
	}
	if hc.OverCapFrac <= 0 {
		hc.OverCapFrac = 1.5
	}
	return hc
}

// HealthEvent records one node's state transition.
type HealthEvent struct {
	T    time.Duration
	Node int
	From HealthState
	To   HealthState
	// Reason names the triggering signal ("step-timeout", "panic",
	// "stale-demand", "over-cap", "probe", "recovered", "cleared").
	Reason string
}

// nodeHealth is one node's runtime tracking state.
type nodeHealth struct {
	state      HealthState
	badStreak  int     // consecutive bad epochs while healthy/suspect
	goodStreak int     // consecutive clean epochs while recovering
	staleRun   int     // consecutive epochs with a bit-identical demand report
	lastDemand float64 // previous epoch's demand report
	dwell      int     // quarantine epochs left before the next probe
	backoff    int     // current probe backoff in epochs
	reclaimed  float64 // watts reclaimed at quarantine (assigned - floor)
}

// benched reports whether node i is pinned at the floor and excluded from
// the policy split (quarantined or still probing).
func (c *Coordinator) benched(i int) bool {
	if c.hcfg == nil {
		return false
	}
	s := c.health[i].state
	return s == Quarantined || s == Recovering
}

// transition logs and applies one state change.
func (c *Coordinator) transition(i int, to HealthState, reason string) {
	h := &c.health[i]
	c.healthEvents = append(boundEvents(c.healthEvents), HealthEvent{
		T: c.now, Node: i, From: h.state, To: to, Reason: reason,
	})
	c.transitions++
	h.state = to
}

// eventLogCap bounds the health and chaos event logs. A served cluster
// runs indefinitely and a flapping node adds events every epoch, so when a
// log reaches the cap its oldest half is dropped in place and later
// appends reuse the backing array, as a session bounds its op log.
const eventLogCap = 1024

// boundEvents makes room in log, in place, before an append.
func boundEvents[E any](log []E) []E {
	if len(log) < eventLogCap {
		return log
	}
	return log[:copy(log, log[len(log)-eventLogCap/2:])]
}

// updateHealth runs the state machine over the epoch that just completed:
// classify each node's observable signals, escalate or clear streaks, and
// account reclaimed watts. Called after demand collection and before the
// rebalance, so a quarantine takes effect in the same epoch's budget
// split.
func (c *Coordinator) updateHealth() {
	hc := *c.hcfg
	for i := range c.health {
		h := &c.health[i]

		// Signal classification from what the coordinator can observe.
		demand := c.demand[i]
		invalid := math.IsNaN(demand) || math.IsInf(demand, 0) || demand < 0
		if invalid {
			// A nonsense report must not poison the policy arithmetic.
			c.demand[i] = 0
			demand = 0
		}
		if demand == h.lastDemand {
			h.staleRun++
		} else {
			h.staleRun = 0
			h.lastDemand = demand
		}
		reason := ""
		switch {
		case c.panicked[i]:
			reason = "panic"
		case !c.stepped[i]:
			reason = "step-timeout"
		case invalid:
			reason = "invalid-demand"
		case demand > c.assigned[i]*hc.OverCapFrac && !c.benched(i):
			// Benched nodes are exempt: a recovery probe pins the node at
			// the floor, below the machine's idle draw, so over-cap there
			// is expected rather than a failure — re-quarantining on it
			// would strand every probed node forever.
			reason = "over-cap"
		case hc.StaleEpochs > 0 && h.staleRun >= hc.StaleEpochs:
			reason = "stale-demand"
		}
		bad := reason != ""

		switch h.state {
		case Healthy, Suspect:
			if !bad {
				h.badStreak = 0
				if h.state == Suspect {
					c.transition(i, Healthy, "cleared")
				}
				break
			}
			h.badStreak++
			if h.state == Healthy {
				c.transition(i, Suspect, reason)
			}
			if h.badStreak >= hc.SuspectEpochs {
				c.transition(i, Quarantined, reason)
				h.reclaimed = c.assigned[i] - c.floor
				if h.reclaimed < 0 {
					h.reclaimed = 0
				}
				h.backoff = hc.ProbeAfterEpochs
				h.dwell = h.backoff
			}
		case Quarantined:
			h.dwell--
			if h.dwell <= 0 {
				c.transition(i, Recovering, "probe")
				h.goodStreak = 0
			}
		case Recovering:
			if bad {
				h.backoff *= 2
				if h.backoff > hc.MaxBackoffEpochs {
					h.backoff = hc.MaxBackoffEpochs
				}
				h.dwell = h.backoff
				c.transition(i, Quarantined, reason)
				break
			}
			h.goodStreak++
			if h.goodStreak >= hc.RecoverEpochs {
				c.transition(i, Healthy, "recovered")
				h.reclaimed = 0
				h.badStreak = 0
			}
		}
	}
}

// QuarantinedCount reports how many nodes are currently benched
// (quarantined or probing).
func (c *Coordinator) QuarantinedCount() int {
	n := 0
	for i := range c.health {
		if c.benched(i) {
			n++
		}
	}
	return n
}

// ReclaimedWatts sums the budget currently reclaimed from benched nodes:
// each node's assignment at the moment it was quarantined, minus the
// floor it retains. Zero once every node is healthy again.
func (c *Coordinator) ReclaimedWatts() float64 {
	w := 0.0
	for i := range c.health {
		if c.benched(i) {
			w += c.health[i].reclaimed
		}
	}
	return w
}

// HealthEvents returns a copy of the state-transition log: the most recent
// transitions, at most eventLogCap of them.
func (c *Coordinator) HealthEvents() []HealthEvent {
	return append([]HealthEvent(nil), c.healthEvents...)
}

// HealthTransitions counts every state transition since the coordinator
// was built, including those the bounded log has dropped.
func (c *Coordinator) HealthTransitions() int { return c.transitions }

// HealthStates fills dst (growing it as needed) with every node's current
// state and returns it; nil input allocates. Returns nil when health
// tracking is disabled.
func (c *Coordinator) HealthStates(dst []HealthState) []HealthState {
	if c.hcfg == nil {
		return nil
	}
	if cap(dst) < len(c.health) {
		dst = make([]HealthState, len(c.health))
	}
	dst = dst[:len(c.health)]
	for i := range c.health {
		dst[i] = c.health[i].state
	}
	return dst
}

// String renders the event compactly, e.g. "node3 suspect->quarantined
// (step-timeout) @12s".
func (e HealthEvent) String() string {
	return fmt.Sprintf("node%d %s->%s (%s) @%v", e.Node, e.From, e.To, e.Reason, e.T)
}
