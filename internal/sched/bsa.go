package sched

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/order"
)

// Policy selects how the scheduler chooses among feasible clusters.
// PolicyProfit is the paper's heuristic; the others exist for the
// ablation study (experiment A1).
type Policy int

// Cluster-selection policies.
const (
	// PolicyProfit ranks candidates by out-edge profit with the paper's
	// tie-breaks (single candidate, pred/succ cluster, default cluster,
	// minimum register requirements).
	PolicyProfit Policy = iota
	// PolicyRoundRobin ignores the profit and rotates through feasible
	// clusters.
	PolicyRoundRobin
	// PolicyFirstFit always takes the lowest-numbered feasible cluster.
	PolicyFirstFit
)

// Options tunes a scheduling run.  The zero value gives the paper's
// algorithm.
type Options struct {
	// Order overrides the SMS node order (ablation A2).
	Order []int
	// Policy overrides cluster selection (ablation A1).
	Policy Policy
	// Assignment, when non-nil, fixes each node's cluster and turns the
	// run into the scheduling phase of a two-phase scheme: the candidate
	// set for node n is exactly {Assignment[n]}.
	Assignment []int
	// MaxII caps the initiation-interval search; 0 means an automatic
	// bound (sequential-schedule length plus slack).
	MaxII int
	// ForceII, when positive, tries exactly that II and fails rather than
	// incrementing.  Two-phase schemes use it so the restart (with a fresh
	// cluster assignment) happens in their own driver loop.
	ForceII int
	// Parallel, when > 1, races up to that many II candidates on separate
	// goroutines, capped at GOMAXPROCS.  The result is deterministic — the
	// lowest feasible II of the same sequence the serial search scans, with
	// identical placements and failure telemetry (see parallel.go).  0 or 1
	// keeps the serial search.
	Parallel int
}

// ScheduleGraph runs the basic scheduling algorithm (BSA) of the paper on g
// for the machine cfg: unified assign-and-schedule following the SMS
// order, increasing II and restarting whenever a node cannot be placed.
// With cfg.NClusters == 1 it degenerates to plain SMS for the unified
// machine.
//
// One attempt state is allocated per run and recycled across the whole
// II search (epoch-based reset); the inner placement loop is
// allocation-free in the steady state.
func ScheduleGraph(g *ddg.Graph, cfg *machine.Config, opts *Options) (*Schedule, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("sched: %s: empty graph", g.Name)
	}
	if opts.Assignment != nil && len(opts.Assignment) != g.NumNodes() {
		return nil, fmt.Errorf("sched: assignment length %d, want %d", len(opts.Assignment), g.NumNodes())
	}

	ord := opts.Order
	if ord == nil {
		// The memoized order is a permutation by construction — only
		// user-supplied orders need checking.
		ord = SMSOrder(g)
	} else if err := order.CheckPermutation(g, ord); err != nil {
		return nil, err
	}

	// MinII includes the bus-latency feasibility floor (ddg.BusMII): IIs
	// on which a needed transfer can never fit are skipped, not
	// attempted.  A floor above max(ResMII, RecMII) means lower IIs were
	// abandoned for the bus — exactly Figure 6's LimitedByBus condition —
	// so the flag is preserved even though no CauseComm attempt ran.
	minII, busFloored := g.MinIIFloored(cfg)
	maxII := opts.MaxII
	if maxII == 0 {
		maxII = minII + sequentialBound(g, cfg)
	}
	if opts.ForceII > 0 {
		if opts.ForceII < minII {
			return nil, &Error{Graph: g.Name, Machine: cfg.Name, MaxII: opts.ForceII,
				Causes: map[FailCause]int{CauseFU: 1}, MinII: minII}
		}
		minII, maxII = opts.ForceII, opts.ForceII
	}

	if workers := raceWorkers(opts); workers > 1 {
		return scheduleParallel(g, cfg, opts, ord, minII, maxII, busFloored, workers)
	}

	var causes [4]int // indexed by FailCause; built into a map only at the end
	lastFail := -1
	fails := 0
	st := getPooledState(g, cfg)
	defer putPooledState(st)
	for ii := minII; ii <= maxII; {
		st.reset(ii)
		cause, failNode := runAttempt(st, ord, opts)
		if cause == CauseNone {
			s := buildSchedule(st, *cfg)
			s.MinII = minII
			s.BusLimited = causes[CauseComm] > 0 || busFloored
			s.Causes = causesMap(causes)
			return s, nil
		}
		causes[cause]++
		lastFail = failNode
		fails++
		ii = nextII(ii, fails)
	}
	return nil, &Error{Graph: g.Name, Machine: cfg.Name, MaxII: maxII, MinII: minII,
		Causes: causesMap(causes), LastNode: lastFail}
}

// SMSOrder returns g's SMS node order.  The order depends only on the
// graph, so it is memoized there: II retries, repeated runs, parallel II
// workers and the two-phase baseline share one computation.  The slice
// is shared; callers must not modify it.
func SMSOrder(g *ddg.Graph) []int {
	return g.Memoize("sched.sms", func() any { return order.SMS(g) }).([]int)
}

// nextII advances the II search: dense stepping near MinII preserves
// schedule quality; after many consecutive failures the II grows
// geometrically so graphs that can never fit (e.g. register-impossible
// at any II) fail in O(log MaxII) attempts instead of sweeping the
// whole range.  fails is the number of attempts already made.
func nextII(ii, fails int) int {
	if fails <= 16 {
		return ii + 1
	}
	return ii + 1 + ii/4
}

// causesMap converts the search loop's flat failure counters into the
// public map representation (nil when no attempt failed, matching the
// first-II-succeeds fast path).
func causesMap(c [4]int) map[FailCause]int {
	var m map[FailCause]int
	for k, v := range c {
		if v != 0 {
			if m == nil {
				m = make(map[FailCause]int, 4)
			}
			m[FailCause(k)] = v
		}
	}
	return m
}

// statePool recycles attempt states across ScheduleGraph runs: every
// arena (reservation bitsets, pressure tables, flat scratch) survives
// between runs, so a steady-state compile services each request without
// rebuilding its working set.
var statePool = sync.Pool{New: func() any { return new(state) }}

func getPooledState(g *ddg.Graph, cfg *machine.Config) *state {
	st := statePool.Get().(*state)
	st.rebind(g, cfg)
	return st
}

func putPooledState(st *state) {
	// Drop the graph/config references so pooled idle states don't pin
	// caller object graphs; the arenas themselves stay warm.
	st.g, st.fg, st.cancel = nil, nil, nil
	statePool.Put(st)
}

// sequentialBound returns an II safely large enough to schedule any loop:
// issuing one operation at a time with full latencies and one bus
// transfer per edge always fits.
func sequentialBound(g *ddg.Graph, cfg *machine.Config) int {
	sum := g.NumNodes()
	for _, e := range g.Edges() {
		sum += e.Latency
	}
	if cfg.Clustered() {
		sum += cfg.BusLatency * (g.NumEdges() + 1)
	}
	return sum + 8
}

// candidate is one feasible (cluster → placement) option for the node
// currently being scheduled.  The placement itself lives in the state's
// per-cluster tryRes slot — keeping the struct two words makes the
// filter and selection copies in the hot loop cheap.
type candidate struct {
	cluster int
	profit  int
}

// runAttempt schedules every node at the state's II, returning CauseNone
// on success or the dominant failure cause plus the node that failed.
//
// Under the paper's policy with free cluster choice, the clusters are
// probed in descending profit order (profitOrder) and the probing stops
// once no unprobed cluster can change chooseByProfit's pick: a cluster's
// profit depends only on placed neighbours, so it is known before its
// cycle scan, and after the first roomy candidate (preferHeadroom's
// test) of profit P every cluster of lower profit is skipped.  Clusters
// of profit P itself are still probed, for the tie-breaks.  When no
// cluster fits, every cluster is probed, so the failure cause is the
// full scan's.  The ablation policies and a fixed Assignment probe every
// candidate cluster.
func runAttempt(st *state, ord []int, opts *Options) (FailCause, int) {
	defCluster := -1
	rrCluster := -1
	byProfit := opts.Policy == PolicyProfit && opts.Assignment == nil
	for _, n := range ord {
		if st.cancel != nil && st.cancel() {
			return CauseCancelled, n
		}
		if !st.anyNeighborScheduled(n) {
			defCluster = (defCluster + 1) % st.cfg.NClusters
		}

		// The candidate window depends only on the node, so the cycle
		// scan (and the parallel kernel-slot buffer) is computed once and
		// shared across the cluster candidates.
		st.fillCycles(n)

		profits := st.profits(n) // all clusters in one edge walk
		clusters := candidateClusters(st, n, opts)
		if byProfit {
			clusters = profitOrder(st, profits)
		}
		cands := st.candBuf[:0]
		worst := CauseFU
		var skipped []int
		floor, stopped := 0, false
		for i, c := range clusters {
			if stopped && profits[c] < floor {
				skipped = clusters[i:]
				break
			}
			cause := st.tryCycles(n, c, nil)
			if cause == CauseNone {
				cands = append(cands, candidate{cluster: c, profit: profits[c]})
				if byProfit && !stopped && st.roomy(c) {
					floor, stopped = profits[c], true
				}
				continue
			}
			if cause > worst {
				worst = cause
			}
		}
		st.candBuf = cands[:0]
		if len(cands) == 0 {
			return worst, n
		}
		if byProfit {
			// The selection sees cands by ascending cluster, as a full
			// scan yields them: its tie-breaks keep the first of equals.
			sortByCluster(cands)
		}

		var chosen candidate
		switch opts.Policy {
		case PolicyRoundRobin:
			chosen = cands[0]
			for _, c := range cands {
				if c.cluster > rrCluster {
					chosen = c
					break
				}
			}
			rrCluster = chosen.cluster
		case PolicyFirstFit:
			chosen = cands[0]
			for _, c := range cands[1:] {
				if c.cluster < chosen.cluster {
					chosen = c
				}
			}
		default:
			chosen = chooseByProfit(st, n, preferHeadroom(st, cands), defCluster)
			if pressureChecks {
				st.checkEarlyStop(n, cands, skipped, chosen, defCluster)
			}
		}
		st.commit(n, chosen.cluster, st.tryRes[chosen.cluster])
	}
	return CauseNone, -1
}

// profitOrder returns every cluster by descending profit, ties by
// ascending cluster: the order runAttempt probes them in.  The list
// lives in the state's scratch buffer.
//
//vliw:allocfree
func profitOrder(st *state, profits []int) []int {
	out := st.orderBuf
	for i := range out {
		c := i
		for ; c > 0 && profits[out[c-1]] < profits[i]; c-- {
			out[c] = out[c-1]
		}
		out[c] = i
	}
	return out
}

// sortByCluster restores ascending cluster order on the few candidates
// a profit-ordered probe found (insertion sort: at most NClusters).
//
//vliw:allocfree
func sortByCluster(cands []candidate) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].cluster < cands[j-1].cluster; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// candidateClusters returns the clusters to try for node n, always in
// ascending cluster order, without allocating (the state's prebuilt
// lists are reused).
//
//vliw:allocfree
func candidateClusters(st *state, n int, opts *Options) []int {
	if opts.Assignment != nil {
		st.oneCluster[0] = opts.Assignment[n]
		return st.oneCluster[:]
	}
	return st.allClusters
}

// preferHeadroom drops candidates that would fill a cluster's register
// file to the brim, as long as a roomier candidate exists.  Once a
// cluster reaches its exact MaxLive capacity, nothing further can be
// placed anywhere — even remote placements extend one of its lifetimes
// through the bus-transfer hold — so a loop larger than one register
// file would jam at every II.  This is BSA's analogue of Nystrom &
// Eichenberger's warning about aggressively filled clusters.
//
//vliw:allocfree
func preferHeadroom(st *state, cands []candidate) []candidate {
	roomy := st.roomyBuf[:0]
	for _, c := range cands {
		if st.roomy(c.cluster) {
			roomy = append(roomy, c)
		}
	}
	st.roomyBuf = roomy[:0]
	if len(roomy) == 0 {
		return cands
	}
	return roomy
}

// roomy reports whether cluster c's tried placement leaves a margin of
// an eighth of the register file (at least one register) free.
//
//vliw:allocfree
func (st *state) roomy(c int) bool {
	margin := st.cfg.RegsPerCluster / 8
	if margin < 1 {
		margin = 1
	}
	return st.tryRes[c].maxLive <= st.cfg.RegsPerCluster-margin
}

// chooseByProfit applies the paper's prioritised criteria (Figure 5,
// steps 4-9): best profit; then the only candidate; then a cluster
// holding a predecessor or successor of n; then the default cluster;
// finally the candidate minimising register requirements.  Every
// criterion after the first looks only at candidates of the best
// profit, so runAttempt hands it just the clusters that can reach it:
// those of profit at least P, the profit of the first roomy candidate
// in descending profit order — preferHeadroom keeps that candidate, so
// the best profit is at least P either way.  cands must come in
// ascending cluster order, as a full scan yields them.
//
//vliw:allocfree
func chooseByProfit(st *state, n int, cands []candidate, defCluster int) candidate {
	best := cands[0].profit
	for _, c := range cands[1:] {
		if c.profit > best {
			best = c.profit
		}
	}
	short := st.shortBuf[:0]
	for _, c := range cands {
		if c.profit == best {
			short = append(short, c)
		}
	}
	st.shortBuf = short[:0]
	if len(short) == 1 {
		return short[0]
	}
	// Prefer the candidate with the most scheduled neighbours.
	bestNb, nbCount := -1, 0
	nb := st.neighborsInAll(n)
	for i, c := range short {
		if v := nb[c.cluster]; v > nbCount {
			bestNb, nbCount = i, v
		}
	}
	if bestNb >= 0 {
		return short[bestNb]
	}
	for _, c := range short {
		if c.cluster == defCluster {
			return c
		}
	}
	min := short[0]
	for _, c := range short[1:] {
		if cl, ml := st.tryRes[c.cluster].maxLive, st.tryRes[min.cluster].maxLive; cl < ml ||
			(cl == ml && c.cluster < min.cluster) {
			min = c
		}
	}
	return min
}

// buildSchedule normalises the attempt into an immutable Schedule:
// flat times are shifted so the earliest operation issues at cycle 0
// (uniform shifts preserve all modulo distances), and FU indexes are
// assigned within each (cluster, class, slot) group by sorting one
// index permutation — no per-group map or slices.
func buildSchedule(st *state, cfg machine.Config) *Schedule {
	n := st.g.NumNodes()
	min := 0
	first := true
	for id := 0; id < n; id++ {
		if !st.placed(id) {
			continue
		}
		if first || st.time[id] < min {
			min, first = st.time[id], false
		}
	}

	s := &Schedule{
		Graph:      st.g,
		Cfg:        cfg,
		II:         st.ii,
		Placements: make([]Placement, n),
	}
	for id := 0; id < n; id++ {
		s.Placements[id] = Placement{
			Node:    id,
			Cluster: st.cluster[id],
			Cycle:   st.time[id] - min,
		}
	}
	if len(st.transfers) > 0 {
		s.Transfers = make([]Transfer, len(st.transfers))
		for i, t := range st.transfers {
			t.Start -= min
			s.Transfers[i] = t
		}
	}

	// Deterministic FU assignment inside each (cluster, class, slot):
	// sort the node IDs by group then by (cycle, id) and walk the runs.
	// The permutation scratch lives on the state so a pooled run's only
	// allocations are the Schedule itself.
	if cap(st.sortBuf) < 2*n {
		st.sortBuf = make([]int, 2*n)
	}
	sortBack := st.sortBuf[:2*n]
	fs := &fuSorter{ids: sortBack[:n:n], key: sortBack[n:]}
	for id := 0; id < n; id++ {
		fs.ids[id] = id
		slot := s.Placements[id].Cycle % st.ii // cycles are >= 0 after the shift
		fs.key[id] = (s.Placements[id].Cluster*int(machine.NumFUClasses)+
			int(st.fg.class[id]))*st.ii + slot
	}
	fs.cycles = s.Placements
	if n <= 48 {
		// Insertion sort: typical loop bodies are small and the IDs come
		// nearly ordered, which beats sort.Sort's interface dispatch.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && fs.Less(j, j-1); j-- {
				fs.Swap(j, j-1)
			}
		}
	} else {
		sort.Sort(fs)
	}
	for i := 0; i < n; {
		j := i
		for j < n && fs.key[fs.ids[j]] == fs.key[fs.ids[i]] {
			s.Placements[fs.ids[j]].FU = j - i
			j++
		}
		i = j
	}
	return s
}

// fuSorter orders node IDs by (cluster, class, slot) group key, then by
// (cycle, id) within a group — a concrete sort.Interface so the
// once-per-schedule normalisation avoids sort.Slice's reflection
// machinery.
type fuSorter struct {
	ids    []int
	key    []int
	cycles []Placement
}

func (f *fuSorter) Len() int      { return len(f.ids) }
func (f *fuSorter) Swap(a, b int) { f.ids[a], f.ids[b] = f.ids[b], f.ids[a] }
func (f *fuSorter) Less(a, b int) bool {
	i, j := f.ids[a], f.ids[b]
	if f.key[i] != f.key[j] {
		return f.key[i] < f.key[j]
	}
	if f.cycles[i].Cycle != f.cycles[j].Cycle {
		return f.cycles[i].Cycle < f.cycles[j].Cycle
	}
	return i < j
}
