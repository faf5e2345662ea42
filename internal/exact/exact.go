// Package exact is the repository's optimality oracle: a
// branch-and-bound modulo scheduler that searches IIs from MinII
// upward and, for each, exhaustively explores node placements until it
// either finds a schedule or refutes the II.  The first II that admits
// a schedule is returned together with a proof flag: Proved means every
// lower II was exhaustively refuted, so the heuristic scheduler (BSA)
// can be scored against a known optimum — and a BSA run that ever beat
// a Proved result would expose a search-space bug in one of the two.
//
// # Search space and what "optimal" means
//
// The search is built directly on the production scheduler's attempt
// state (sched.Attempt): the same modulo reservation table, the same
// bus planner with BusLatency-slot holds, the same register-pressure
// check and — crucially — the same probe.  sched.Attempt.Choices runs
// BSA's own per-cluster cycle scan (placement window, communication
// template, register check and register skip) and keeps every fit
// instead of the first, in the same SMS node order.  Any schedule BSA
// can reach is therefore one path of this search tree, which gives the
// oracle its load-bearing invariant:
//
//	Proved result  =>  exact II <= BSA II  (on the same graph/machine)
//
// Minimality is proved relative to that bounded placement space, which
// pins the first node of the order to cycle 0 — exactly where BSA
// always roots it (the empty-state window scans cycles from 0) — and,
// on homogeneous machines, to cluster 0, a true relabelling symmetry.
// The cycle pin is part of the space's definition rather than a pure
// shift symmetry: the window clamps anchor unscheduled-neighbour scans
// at absolute cycle 0, so a hypothetical schedule rooted elsewhere may
// have no pinned equivalent.  The honest claim, and the one the
// differential tests rely on, is "no schedule the heuristic's placement
// language can express exists below this II".
//
// # Budgets
//
// Exhaustive refutation is exponential in the worst case, so a Budget
// caps both the graph size (MaxNodes — larger graphs are rejected
// immediately, which is how unrolled bodies degrade gracefully) and the
// total number of enumerated placements across the whole run (MaxSteps).
// A run that exhausts MaxSteps returns ErrBudget: the caller learns
// nothing false, it just learns nothing.
package exact

import (
	"errors"
	"fmt"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Default budget values; see Budget.
const (
	DefaultMaxNodes = 20
	DefaultMaxSteps = 500_000
)

// Budget bounds one exact-scheduling run.  The zero value means the
// defaults above.
type Budget struct {
	// MaxNodes rejects graphs with more nodes before searching at all
	// (ErrTooLarge); exhaustive search on large unrolled bodies would
	// dwarf any step budget.  < 0 disables the check.
	MaxNodes int
	// MaxSteps caps the total number of candidate placements enumerated
	// across every II of the run; exceeding it aborts with ErrBudget.
	// < 0 disables the cap.
	MaxSteps int64
	// MaxII caps the II sweep; 0 means MinII + sched.SequentialBound,
	// the same automatic bound the heuristic uses.
	MaxII int
}

// Nodes returns the node cap with the zero-value default resolved.
func (b Budget) Nodes() int {
	if b.MaxNodes == 0 {
		return DefaultMaxNodes
	}
	return b.MaxNodes
}

// Steps returns the step cap with the zero-value default resolved.
func (b Budget) Steps() int64 {
	if b.MaxSteps == 0 {
		return DefaultMaxSteps
	}
	return b.MaxSteps
}

// Sentinel errors; both are wrapped with graph/machine context.
var (
	// ErrTooLarge marks a graph above Budget.MaxNodes.
	ErrTooLarge = errors.New("exact: graph exceeds node budget")
	// ErrBudget marks a run that exhausted Budget.MaxSteps before
	// finding a schedule.
	ErrBudget = errors.New("exact: step budget exhausted")
)

// Result is a finished exact-scheduling run.
type Result struct {
	// Schedule is the schedule at the smallest II the search reached.
	Schedule *sched.Schedule
	// Proved reports that every II below Schedule.II was exhaustively
	// refuted: Schedule.II is the minimum over the search space.
	Proved bool
	// LowerBound is the smallest II not proven infeasible; when Proved,
	// it equals Schedule.II.
	LowerBound int
	// Steps is the number of candidate placements enumerated.
	Steps int64
}

// String summarises the run.
func (r *Result) String() string {
	proof := "proved optimal"
	if !r.Proved {
		proof = fmt.Sprintf("unproven (lower bound %d)", r.LowerBound)
	}
	return fmt.Sprintf("exact: II=%d %s, %d steps", r.Schedule.II, proof, r.Steps)
}

// Schedule finds the minimum-II modulo schedule of g on cfg within the
// budget (nil means all defaults).  See the package comment for the
// exact sense of "minimum".
func Schedule(g *ddg.Graph, cfg *machine.Config, budget *Budget) (*Result, error) {
	if budget == nil {
		budget = &Budget{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("exact: %s: empty graph", g.Name)
	}
	if max := budget.Nodes(); max >= 0 && g.NumNodes() > max {
		return nil, fmt.Errorf("exact: %s: %d nodes on %s: %w",
			g.Name, g.NumNodes(), cfg.Name, ErrTooLarge)
	}

	s := &searcher{
		g: g, cfg: cfg,
		ord:      sched.SMSOrder(g),
		maxSteps: budget.Steps(),
		homog:    cfg.Hetero == nil,
		bufs:     make([][]sched.Choice, g.NumNodes()),
	}
	minII := g.MinII(cfg)
	// One attempt is allocated for the whole sweep and Reset per II: the
	// reservation tables, incremental pressure tables and undo logs are
	// recycled, so each of the search's expansions costs O(lifetime
	// length) bookkeeping with no steady-state allocation.
	s.a = sched.NewAttempt(g, cfg, minII)
	maxII := budget.MaxII
	if maxII == 0 {
		maxII = minII + sched.SequentialBound(g, cfg)
	}

	lower := minII
	for ii := minII; ii <= maxII; ii++ {
		st, schedule := s.searchII(ii)
		switch st {
		case stFound:
			schedule.MinII = minII
			return &Result{
				Schedule:   schedule,
				Proved:     lower == ii,
				LowerBound: lower,
				Steps:      s.steps,
			}, nil
		case stInfeasible:
			lower = ii + 1
		case stBudget:
			return nil, fmt.Errorf("exact: %s on %s: %d steps at II %d (proved lower bound %d): %w",
				g.Name, cfg.Name, s.steps, ii, lower, ErrBudget)
		}
	}
	return nil, fmt.Errorf("exact: %s on %s: no schedule up to II %d", g.Name, cfg.Name, maxII)
}

// status classifies one searchII / dfs outcome.
type status int

const (
	stInfeasible status = iota
	stFound
	stBudget
)

// searcher carries the per-run immutable inputs (graph, machine, SMS
// order — memoized on the graph and reused across every II of the
// sweep), the global step counter and one choice buffer per DFS depth.
type searcher struct {
	g        *ddg.Graph
	cfg      *machine.Config
	ord      []int
	a        *sched.Attempt
	homog    bool
	maxSteps int64
	steps    int64
	// bufs[idx] holds the choices of the idx-th node of the order; a
	// depth's list lives until the DFS returns from it, so each depth
	// reuses its own buffer across every visit and every II.
	bufs [][]sched.Choice
}

// searchII exhaustively explores placements at one II, rewinding the
// shared attempt in place.
func (s *searcher) searchII(ii int) (status, *sched.Schedule) {
	s.a.Reset(ii)
	return s.dfs(s.a, 0)
}

// dfs places the idx-th node of the SMS order every feasible way and
// recurses; it returns stFound with the completed schedule, stInfeasible
// when the subtree is exhausted, or stBudget when the step cap fired
// (in which case "infeasible" can no longer be concluded anywhere up
// the stack).
func (s *searcher) dfs(a *sched.Attempt, idx int) (status, *sched.Schedule) {
	if idx == len(s.ord) {
		return stFound, a.Schedule()
	}
	n := s.ord[idx]
	chs := a.Choices(n, s.bufs[idx][:0])
	s.bufs[idx] = chs
	if idx == 0 {
		chs = s.pinFirst(chs)
	}
	s.steps += int64(len(chs)) + 1
	if s.maxSteps >= 0 && s.steps > s.maxSteps {
		return stBudget, nil
	}
	for _, ch := range chs {
		a.Place(n, ch)
		st, schedule := s.dfs(a, idx+1)
		a.Unplace(n, ch)
		if st != stInfeasible {
			return st, schedule
		}
	}
	return stInfeasible, nil
}

// pinFirst restricts the root node's choices to cycle 0 (where BSA
// always roots the order, so the oracle contract is unaffected; see
// the package comment for why this defines the search space rather
// than exploiting a pure shift symmetry) and, on a homogeneous machine,
// to cluster 0 (a true relabelling symmetry).  If pinning would empty
// the set (it cannot for a well-formed machine, but stay sound), the
// unpinned set is kept.
func (s *searcher) pinFirst(chs []sched.Choice) []sched.Choice {
	var pinned []sched.Choice
	for _, ch := range chs {
		if ch.Cycle != 0 {
			continue
		}
		if s.homog && ch.Cluster != 0 {
			continue
		}
		pinned = append(pinned, ch)
	}
	if len(pinned) == 0 {
		return chs
	}
	return pinned
}
