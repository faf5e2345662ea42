// Unroll policy: "portfolio" — race the three Figure 8 strategies
// concurrently and return the best per-iteration II.
//
// Each candidate runs the ordinary registered policy on its own child
// CompileContext inside a bounded worker group, reusing the
// scheduler's recycled per-run state on its own goroutine (one attempt
// state per ScheduleGraph call, PR 3).  When a finished candidate's
// result is provably unbeatable — every still-running candidate's
// per-iteration lower bound (MinII of its unrolled graph over its
// factor) is no better — the losers' contexts are cancelled; they stop
// at their next stage boundary.  Comparisons use exact rational
// arithmetic (II·f' vs II'·f) and break ties by candidate order, so
// the winning schedule is deterministic no matter how the race
// interleaves: a compile cache can safely key on it.

package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/machine"
)

// portfolioCandidates is the raced strategy set, in tie-break priority
// order (earlier wins ties — the cheaper, less code-size-hungry
// result).
var portfolioCandidates = []Strategy{NoUnroll, UnrollAll, SelectiveUnroll}

type portfolioPolicy struct{}

func (portfolioPolicy) Name() string { return string(Portfolio) }

func (portfolioPolicy) MaxFactor(opts *Options, cfg *machine.Config) int {
	f := effectiveFactor(opts, cfg)
	if cfg.NClusters > f {
		f = cfg.NClusters // selective unrolls by the cluster count
	}
	return f
}

// candidate pairs a raced strategy with its per-iteration lower bound.
type candidate struct {
	strat Strategy
	// floor is MinII(unroll(g, f))/f — no schedule of this candidate
	// can have a lower per-iteration II, which is what makes pruning
	// sound.
	floor ratio
}

func (portfolioPolicy) Compile(cc *Context) (*Result, error) {
	cands := portfolioFloors(cc)
	if len(cands) == 1 {
		// Degenerate machine (unified, factor 1): every candidate is
		// no_unroll; skip the race.
		res, err := (noUnrollPolicy{}).Compile(cc)
		if err != nil {
			return nil, err
		}
		cc.setWinner(string(NoUnroll))
		cc.addCandidate(Candidate{Strategy: string(NoUnroll), IterationII: res.IterationII(), Won: true})
		res.Policy = string(NoUnroll)
		return res, nil
	}

	n := len(cands)
	base, cancelAll := context.WithCancel(cc.Context())
	defer cancelAll()
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := range cands {
		ctxs[i], cancels[i] = context.WithCancel(base)
	}

	children := make([]*Context, n)
	results := make([]*Result, n)
	errs := make([]error, n)

	var mu sync.Mutex
	bestIdx := -1
	// beats reports whether value a at candidate index i wins over
	// value b at index j: strictly better, or equal with priority.
	beats := func(a ratio, i int, b ratio, j int) bool {
		return a.less(b) || (!b.less(a) && i < j)
	}
	// record notes one finished candidate and cancels every running
	// candidate whose floor can no longer beat the best result.
	record := func(i int, res *Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		results[i], errs[i] = res, err
		if err == nil && (bestIdx < 0 || beats(res.iterRatio(), i, results[bestIdx].iterRatio(), bestIdx)) {
			bestIdx = i
		}
		if bestIdx < 0 {
			return
		}
		best := results[bestIdx].iterRatio()
		for j := range cands {
			if j != bestIdx && results[j] == nil && errs[j] == nil && !beats(cands[j].floor, j, best, bestIdx) {
				cancels[j]()
			}
		}
	}

	workers := n
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				child := cc.Child(ctxs[i], cands[i].strat)
				children[i] = child
				pol, err := LookupStrategy(string(cands[i].strat))
				if err != nil {
					record(i, nil, err)
					continue
				}
				// Per-candidate panic isolation: a panic on this worker
				// goroutine would bypass CompileCtx's recover and kill the
				// process; recovered here it is just a failed candidate.
				res, err := func() (res *Result, err error) {
					defer recoverCompile(cc.Engine.Name(), string(cands[i].strat), &res, &err)
					return pol.Compile(child)
				}()
				record(i, res, err)
			}
		}()
	}
	for i := range cands {
		idx <- i
	}
	close(idx)
	wg.Wait() // every worker joined: no goroutine outlives the call

	if bestIdx < 0 {
		// Every candidate failed: surface the parent cancellation if
		// there was one, else the first candidate's error.
		if err := cc.Err(); err != nil {
			return nil, err
		}
		return nil, errs[0]
	}
	for i := range cands {
		c := Candidate{Strategy: string(cands[i].strat), Won: i == bestIdx}
		if errs[i] != nil {
			c.Err = errs[i].Error()
		} else if results[i] != nil {
			c.IterationII = results[i].IterationII()
		}
		cc.addCandidate(c)
	}
	cc.Merge(children[bestIdx])
	cc.setWinner(string(cands[bestIdx].strat))
	res := results[bestIdx]
	res.Policy = string(cands[bestIdx].strat)
	return res, nil
}

// portfolioFloors builds the candidate set with its per-iteration
// lower bounds; the MinII computations on the unrolled graphs are
// unroll-decision work and timed as such.  The graphs built here are
// the loop's shared unrolled graphs (ddg.Graph.Unroll), so the
// candidates that schedule them look them up rather than rebuild them.
func portfolioFloors(cc *Context) []candidate {
	start := time.Now()
	unrollBefore := cc.stageDuration(StageUnroll)
	// The nested cc.Unroll calls account their own time; record only
	// the floor computation on top of them, so nothing counts twice.
	defer func() {
		nested := cc.stageDuration(StageUnroll) - unrollBefore
		cc.addStage(StageUnroll, time.Since(start)-nested, 1)
	}()

	floor1 := ratio{cc.Graph.MinII(cc.Cfg), 1}
	cands := []candidate{{NoUnroll, floor1}}
	f := effectiveFactor(cc.Opts, cc.Cfg)
	if f <= 1 {
		return cands
	}
	floorF := ratio{cc.Unroll(f).MinII(cc.Cfg), f}
	cands = append(cands, candidate{UnrollAll, floorF})

	if cc.Engine.Heuristic() && cc.Cfg.Clustered() {
		// Selective either keeps the original loop or unrolls by the
		// cluster count, so its floor is the better of the two.
		floorU := floorF
		if u := cc.Cfg.NClusters; u != f {
			floorU = ratio{cc.Unroll(u).MinII(cc.Cfg), u}
		}
		sel := floor1
		if floorU.less(sel) {
			sel = floorU
		}
		cands = append(cands, candidate{SelectiveUnroll, sel})
	}
	return cands
}

func init() { RegisterStrategy(portfolioPolicy{}) }
