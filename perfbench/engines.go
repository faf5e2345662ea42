package main

import (
	"sync"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/engine"
	"repro/internal/order"
	"repro/internal/sched"
)

// Traced runs compile through these scheduler engines: each calls the
// same public functions as the registered bsa and ne engines, with a
// span around every call into order, sched and assign.  The spans hang
// under whatever span the compile's context carries.
const (
	tracedBSAName = "perfbench-bsa"
	tracedNEName  = "perfbench-ne"
)

type tracedBSA struct{}

func (tracedBSA) Name() string    { return tracedBSAName }
func (tracedBSA) Heuristic() bool { return true }

// Schedule computes the SMS order itself (the bsa engine memoizes the
// same order.SMS call on the graph) so that ordering and the II search
// get separate spans; the schedule is identical, which the output
// check confirms on every traced compile.
func (tracedBSA) Schedule(cc *engine.Context, g *ddg.Graph) (*engine.Run, error) {
	ref := spanFrom(cc.Context())
	sp := ref.child("order.sms")
	ord := order.SMS(g)
	sp.end()
	opts := cc.Opts.Sched
	opts.Order = ord
	sp = ref.child("sched.schedule")
	s, err := sched.ScheduleGraph(g, cc.Cfg, &opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	first := s.MinII
	if opts.ForceII > 0 {
		first = opts.ForceII
	}
	return &engine.Run{Schedule: s, FirstII: first}, nil
}

type tracedNE struct{}

func (tracedNE) Name() string    { return tracedNEName }
func (tracedNE) Heuristic() bool { return true }

func (tracedNE) Schedule(cc *engine.Context, g *ddg.Graph) (*engine.Run, error) {
	sp := spanFrom(cc.Context()).child("assign.ne")
	s, err := assign.NystromEichenberger(g, cc.Cfg, nil)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &engine.Run{Schedule: s, FirstII: s.MinII}, nil
}

var registerOnce sync.Once

// tracedOptions swaps the scheduler for its traced twin, registering
// the twins on first use (untraced runs leave the registry alone).
func tracedOptions(o core.Options) core.Options {
	registerOnce.Do(func() {
		engine.RegisterScheduler(tracedBSA{})
		engine.RegisterScheduler(tracedNE{})
	})
	switch engine.CanonicalScheduler(o.Scheduler.String()) {
	case string(core.BSA):
		o.Scheduler = tracedBSAName
	case string(core.NystromEichenberger):
		o.Scheduler = tracedNEName
	}
	return o
}
