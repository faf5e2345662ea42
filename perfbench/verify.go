package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/emit"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/vliwsim"
	"repro/internal/wire"
)

// referenceCompile is the in-process compile every served or piped
// schedule is compared against: core.Compile with the pipeline's
// unroll_all → no_unroll fallback.
func referenceCompile(ctx context.Context, l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
	res, err := core.CompileCtx(ctx, l.Graph, cfg, &opts)
	if err != nil && engine.CanonicalStrategy(opts.Strategy.String()) == string(core.UnrollAll) {
		fb := opts
		fb.Strategy = core.NoUnroll
		res, err = core.CompileCtx(ctx, l.Graph, cfg, &fb)
		if err == nil {
			res.FellBack = true
		}
	}
	return res, err
}

// schedSig fingerprints a schedule's content — II, unroll factor,
// every placement and transfer — and nothing of its telemetry.
func schedSig(res *core.Result) uint64 {
	s := res.Schedule
	h := fnv.New64a()
	var buf []byte
	put := func(xs ...int) {
		for _, x := range xs {
			buf = binary.AppendVarint(buf, int64(x))
		}
	}
	put(s.II, res.Factor, len(s.Placements), len(s.Transfers))
	for _, p := range s.Placements {
		put(p.Node, p.Cluster, p.FU, p.Cycle)
	}
	for _, t := range s.Transfers {
		put(t.Producer, t.From, t.To, t.Bus, t.Start)
	}
	h.Write([]byte(s.Graph.Name))
	h.Write(buf)
	return h.Sum64()
}

// simulate runs the independent cycle simulator over enough kernel
// iterations for every stage to overlap.
func simulate(s *sched.Schedule) error {
	return vliwsim.Verify(s, s.SC()+4)
}

// unschedulable reports whether err is the scheduler's "no schedule in
// the II range" outcome, a property of the input rather than a fault:
// a *sched.Error in-process, the unschedulable code on the wire.
func unschedulable(err error) bool {
	var se *sched.Error
	var we *wire.Error
	return errors.As(err, &se) || (errors.As(err, &we) && we.Code == wire.CodeUnschedulable)
}

// checkAgainstReference compares one outcome with the reference compile
// of the same key and simulates the schedule.  A nil return means the
// outcome is correct: either an equal, simulator-verified schedule, or
// an unschedulable error the reference reproduces.
func checkAgainstReference(got *core.Result, gotErr error, ref *core.Result, refErr error) error {
	switch {
	case gotErr != nil && refErr != nil:
		if unschedulable(gotErr) && unschedulable(refErr) {
			return nil
		}
		return fmt.Errorf("error %q, reference error %q", gotErr, refErr)
	case gotErr != nil:
		return fmt.Errorf("error %q where the reference schedules (II %d)", gotErr, ref.Schedule.II)
	case refErr != nil:
		return fmt.Errorf("schedule (II %d) where the reference fails: %v", got.Schedule.II, refErr)
	}
	if schedSig(got) != schedSig(ref) {
		return fmt.Errorf("schedule differs from the reference (II %d/%d, factor %d/%d)",
			got.Schedule.II, ref.Schedule.II, got.Factor, ref.Factor)
	}
	if err := simulate(got.Schedule); err != nil {
		return fmt.Errorf("simulator rejects the schedule: %v", err)
	}
	return nil
}

// parallel runs fn(i) for i in [0, n) on workers goroutines.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// loopCycles is the paper's cycle model for one loop invocation, the
// formula experiments.benchIPC uses: (ceil(iters/U) + SC - 1) * II.
func loopCycles(l *corpus.Loop, res *core.Result) int64 {
	k := (l.Iters + res.Factor - 1) / res.Factor
	return int64(res.Schedule.Cycles(k))
}

// codeWords is the emitted program's static instruction count
// (prologue + kernel + epilogue), Figure 10's code size.
func codeWords(res *core.Result) int64 {
	return int64(emit.Emit(res.Schedule).Count().Instructions)
}
