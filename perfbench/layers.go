package main

import (
	"time"

	"pupil/internal/cluster"
	"pupil/internal/core"
	"pupil/internal/machine"
)

// tracedController records a controller's Start and Step calls, and the
// Env calls they make, as spans under the span *parent names. It wraps the
// Env once and reuses the wrapper, so tracing a decision allocates
// nothing.
type tracedController struct {
	inner  core.Controller
	rec    *recorder
	tag    int16
	parent *int32
	env    tracedEnv
}

func traceController(inner core.Controller, rec *recorder, tag int16, parent *int32) *tracedController {
	t := &tracedController{inner: inner, rec: rec, tag: tag, parent: parent}
	t.env.c = t
	return t
}

func (t *tracedController) Name() string          { return t.inner.Name() }
func (t *tracedController) Period() time.Duration { return t.inner.Period() }

func (t *tracedController) Start(env core.Env) {
	id := t.rec.begin(kStart, *t.parent, t.tag, 0)
	t.inner.Start(t.wrap(env, id))
	t.rec.end(id)
}

func (t *tracedController) Step(env core.Env) {
	id := t.rec.begin(kDecide, *t.parent, t.tag, 0)
	t.inner.Step(t.wrap(env, id))
	t.rec.end(id)
}

func (t *tracedController) wrap(env core.Env, id int32) core.Env {
	t.env.Env, t.env.cur = env, id
	return &t.env
}

// tracedEnv records the Env calls that do work behind the interface:
// SetConfig (an evaluator rebuild), SetRAPL and the Feedback filter.
type tracedEnv struct {
	core.Env
	c   *tracedController
	cur int32 // the open Start or Step span
}

func (e *tracedEnv) SetConfig(cfg machine.Config) time.Duration {
	id := e.c.rec.begin(kSetConfig, e.cur, e.c.tag, 0)
	d := e.Env.SetConfig(cfg)
	e.c.rec.end(id)
	return d
}

func (e *tracedEnv) SetRAPL(perSocket []float64) {
	id := e.c.rec.begin(kSetRAPL, e.cur, e.c.tag, 0)
	e.Env.SetRAPL(perSocket)
	e.c.rec.end(id)
}

func (e *tracedEnv) Feedback(window time.Duration) core.Feedback {
	id := e.c.rec.begin(kFeedback, e.cur, e.c.tag, 0)
	fb := e.Env.Feedback(window)
	e.c.rec.end(id)
	return fb
}

// tracedPolicy records each Rebalance under the coordinator step span.
type tracedPolicy struct {
	inner  cluster.Policy
	rec    *recorder
	parent *int32
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Rebalance(next, assigned, meanPower []float64) {
	id := p.rec.begin(kPolicy, *p.parent, 0, 0)
	p.inner.Rebalance(next, assigned, meanPower)
	p.rec.end(id)
}
