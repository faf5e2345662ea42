package sched

import (
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/regpress"
)

// state is one in-progress scheduling attempt at a fixed II.
//
// It is built for reuse: ScheduleGraph draws one state per run from a
// pool and reset() rewinds it for every II of the search (epoch-based
// placement flags, modulo tables resized in place, scratch buffers
// recycled), so the II sweep and the try/place/unplace inner loop are
// allocation-free in the steady state.  rebind() points a recycled
// state at a new graph/machine, growing the per-node arenas in place.
//
// The graph is consumed through its flattened view (flat.go): the inner
// loops walk contiguous value-typed half-edge arrays instead of []*Edge
// pointer chains.
//
// Register pressure is maintained incrementally: press holds one
// regpress.Table per cluster, updated in place/unplace with exactly the
// lifetime segments a placement creates — the node's own value, the
// extensions of already-placed same-cluster producers, and the
// producer/consumer holds of its bus transfers.  Candidate placements
// are checked without touching the live tables at all: speculate()
// records the would-be segments in per-cluster Shadow views of the live
// tables (a few slot arcs each, read against the tables' block maxima;
// nothing copied, nothing to undo), so only the chosen candidate pays
// for a real place.
type state struct {
	g   *ddg.Graph
	fg  *flatGraph
	cfg *machine.Config
	ii  int
	res *mrt

	// Placement flags are epoch-based so reset() is O(1): node n is
	// placed iff placedEpoch[n] == epoch.  time/cluster/lifeEnd/mark are
	// only read while a node is placed.
	epoch       int32
	placedEpoch []int32
	time        []int // flat cycle, valid when placed
	cluster     []int // cluster, valid when placed

	transfers []Transfer
	// byProd indexes committed transfers by producer (all destination
	// clusters) for transfer reuse — one bus write can serve every later
	// consumer in its destination cluster — and for the incremental
	// consumer-side lifetime extensions.  Entries are appended and popped
	// in lockstep with transfers (strictly LIFO).
	byProd [][]int32
	// transLast[i] is transfers[i]'s consumer-side lifetime bound: the
	// latest read+1 among placed consumers in the destination cluster
	// served by the transfer (>= arrival).  Values read exactly at
	// arrival live in the IRV and need no register, so the lifetime
	// [arrival, transLast) only contributes pressure when
	// transLast > arrival+1.
	transLast []int

	// lifeEnd[n] is node n's producer-side lifetime end — issue to last
	// same-cluster read, loop-carried reads included, or last bus write,
	// whichever is later.  Valid while n is placed and produces a value.
	lifeEnd []int

	// press[c] is cluster c's incrementally maintained modulo register
	// pressure; fits() is O(NClusters).
	press []regpress.Table
	// undo records every pressure mutation so unplace can rewind to
	// mark[n], the undo-stack depth saved when n was placed.  place and
	// unplace are strictly LIFO (the exact oracle's DFS), which is what
	// makes a single stack sufficient.
	undo []undoRec
	mark []int

	// Speculation scratch (speculate): per-cluster shadow views plus
	// stamped temporaries emulating the lifetime/transfer-bound updates
	// a real place would make.  specEpoch advances per speculation so
	// the stamps never need clearing.
	shadow      []regpress.Shadow
	shadowDirty []bool
	dirtyList   []int
	specEpoch   int32
	lifeTmp     []int
	lifeStamp   []int32
	transTmp    []int
	transStamp  []int32

	// seen/seenEpoch stamp visited neighbours for the allocation-free
	// distinct-neighbour counts (neighborsInAll).
	seen      []int32
	seenEpoch int32

	// cancel, when non-nil, is polled once per node by runAttempt; a
	// true return abandons the attempt (parallel II race losers).
	cancel func() bool

	// Per-node scan state (fillCycles): the candidate-cycle run and the
	// kernel slot of its first cycle, shared by the per-cluster tries.
	run     scanRun
	runSlot int

	// Scratch buffers reused across tryCycles calls.
	tplInBuf    []tplIn
	tplOutBuf   []tplOut
	tplMin      []int // per-cluster feasibility interval of the template
	tplMax      []int
	satInBuf    []int // per (in-entry, cluster) satisfied-below threshold
	satOutBuf   []int // per out-entry satisfied-at-or-below threshold
	prodBuf     []prodRead
	endFix      []int // per-cluster fixed consumer end of the node's value
	selfMax     int   // max self-edge distance of the current node, -1 if none
	profitBuf   []int
	nbBuf       []int
	keepBuf     [][]plannedComm // per-cluster: survives until the candidate is committed
	tryRes      []tryResult     // per-cluster: result slot filled by tryCycles
	candBuf     []candidate
	roomyBuf    []candidate
	shortBuf    []candidate
	sortBuf     []int
	allClusters []int
	orderBuf    []int // profitOrder's cluster permutation
	oneCluster  [1]int
}

// undoRec is one reversible pressure mutation.
type undoRec struct {
	kind    int8
	x, y, z int
}

const (
	uInterval  int8 = iota // subtract one instance over [y, z) on cluster x
	uLifeEnd               // restore lifeEnd[x] = y (removing [y, lifeEnd[x]) on x's cluster)
	uTransLast             // restore transLast[x] = y
)

// newSchedState allocates a reusable attempt state; call reset(ii)
// before each II.
func newSchedState(g *ddg.Graph, cfg *machine.Config) *state {
	st := new(state)
	st.rebind(g, cfg)
	return st
}

// growInts returns s resized to n entries, reusing the backing array
// when capacity allows.  Contents are unspecified.
//
//vliw:allocfree
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n, n+n/2+8) //vliw:alloc-ok amortized: grows once per size class, reused for the whole run
	}
	return s[:n]
}

//vliw:allocfree
func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/2+8) //vliw:alloc-ok amortized: grows once per size class, reused for the whole run
	}
	return s[:n]
}

// rebind points the state at a graph/machine pair, growing every
// per-node and per-cluster arena in place.  Epoch counters keep
// running: stale placement or speculation stamps from a previous run
// can never equal a future epoch, so the arenas need no clearing.
func (st *state) rebind(g *ddg.Graph, cfg *machine.Config) {
	// Drop references into the previous run's transfers before the
	// per-node arenas are resized for the new graph.
	for i := range st.transfers {
		p := st.transfers[i].Producer
		st.byProd[p] = st.byProd[p][:0]
	}
	st.transfers = st.transfers[:0]
	st.transLast = st.transLast[:0]
	st.undo = st.undo[:0]

	st.g, st.cfg = g, cfg
	st.fg = flatOf(g)
	n := g.NumNodes()
	nc := cfg.NClusters

	st.placedEpoch = growInt32s(st.placedEpoch, n)
	st.seen = growInt32s(st.seen, n)
	st.lifeStamp = growInt32s(st.lifeStamp, n)
	st.time = growInts(st.time, n)
	st.cluster = growInts(st.cluster, n)
	st.lifeEnd = growInts(st.lifeEnd, n)
	st.mark = growInts(st.mark, n)
	st.lifeTmp = growInts(st.lifeTmp, n)
	for i := range st.cluster {
		st.cluster[i] = -1
	}

	if cap(st.byProd) < n {
		byProd := make([][]int32, n, n+n/2+8)
		copy(byProd, st.byProd)
		st.byProd = byProd
	} else {
		st.byProd = st.byProd[:n]
	}

	if cap(st.press) < nc {
		st.press = make([]regpress.Table, nc)
		st.shadow = make([]regpress.Shadow, nc)
	}
	st.press = st.press[:nc]
	st.shadow = st.shadow[:nc]
	if cap(st.shadowDirty) < nc {
		st.shadowDirty = make([]bool, nc)
		st.dirtyList = make([]int, 0, nc)
	}
	st.shadowDirty = st.shadowDirty[:nc]
	for i := range st.shadowDirty {
		st.shadowDirty[i] = false
	}
	st.dirtyList = st.dirtyList[:0]

	if cap(st.keepBuf) < nc {
		keep := make([][]plannedComm, nc)
		copy(keep, st.keepBuf)
		st.keepBuf = keep
	} else {
		st.keepBuf = st.keepBuf[:nc]
	}

	if cap(st.candBuf) < nc {
		cands := make([]candidate, 3*nc)
		st.candBuf = cands[0*nc : 0 : nc]
		st.roomyBuf = cands[1*nc : nc : 2*nc]
		st.shortBuf = cands[2*nc : 2*nc : 3*nc]
	}
	if cap(st.tryRes) < nc {
		st.tryRes = make([]tryResult, nc)
	} else {
		st.tryRes = st.tryRes[:nc]
	}

	st.allClusters = growInts(st.allClusters, nc)
	for i := range st.allClusters {
		st.allClusters[i] = i
	}
	st.orderBuf = growInts(st.orderBuf, nc)
	st.profitBuf = growInts(st.profitBuf, nc)
	st.nbBuf = growInts(st.nbBuf, nc)
	st.tplMin = growInts(st.tplMin, nc)
	st.tplMax = growInts(st.tplMax, nc)
	st.endFix = growInts(st.endFix, nc)

	if st.res == nil {
		st.res = newMRT(cfg)
	} else {
		st.res.rebind(cfg)
	}
	st.cancel = nil
}

// newState returns a state ready at the given II (tests and one-shot
// callers; ScheduleGraph uses a pooled state + reset directly).
func newState(g *ddg.Graph, cfg *machine.Config, ii int) *state {
	st := newSchedState(g, cfg)
	st.reset(ii)
	return st
}

// reset rewinds the state to an empty attempt at the given II without
// allocating: the placement epoch advances (O(1) clear), the modulo
// tables are resized in place, and the transfer/undo logs are truncated
// with their capacity kept.
//
//vliw:allocfree
func (st *state) reset(ii int) {
	st.ii = ii
	st.res.reset(ii)
	st.epoch++
	for i := range st.transfers {
		p := st.transfers[i].Producer
		st.byProd[p] = st.byProd[p][:0]
	}
	st.transfers = st.transfers[:0]
	st.transLast = st.transLast[:0]
	st.undo = st.undo[:0]
	for c := range st.press {
		st.press[c].Init(ii, st.cfg.RegsPerCluster)
	}
}

// placed reports whether node n is placed in the current attempt.
//
//vliw:allocfree
func (st *state) placed(n int) bool { return st.placedEpoch[n] == st.epoch }

// window is the legal cycle range for a node derived from its already
// scheduled neighbours.  anchored{Early,Late} report whether a
// distance-0 neighbour contributed: purely loop-carried bounds include a
// -II*distance term that slides with every II retry, so they constrain
// but should not *anchor* the scan start (a node tied to the rest of the
// schedule only across iterations is placed near the fresh-subgraph base
// instead of II*distance cycles away).
type window struct {
	early, late                 int
	hasEarly, hasLate           bool
	anchoredEarly, anchoredLate bool
}

//vliw:allocfree
func (st *state) windowOf(n int) window {
	var w window
	for _, e := range st.fg.allIn(n) {
		p := int(e.n)
		if p == n || !st.placed(p) {
			continue
		}
		t := st.time[p] + int(e.lat) - st.ii*int(e.dist)
		if !w.hasEarly || t > w.early {
			w.early, w.hasEarly = t, true
		}
		if e.dist == 0 {
			w.anchoredEarly = true
		}
	}
	for _, e := range st.fg.allOut(n) {
		m := int(e.n)
		if m == n || !st.placed(m) {
			continue
		}
		t := st.time[m] - int(e.lat) + st.ii*int(e.dist)
		if !w.hasLate || t < w.late {
			w.late, w.hasLate = t, true
		}
		if e.dist == 0 {
			w.anchoredLate = true
		}
	}
	return w
}

// scanRun is a node's candidate-cycle scan as an arithmetic sequence:
// count cycles from start, stepping by +1 or -1.  Every case of the SMS
// cycle-preference policy produces one monotone run, so the scan never
// needs materialising — the try loop walks the run and keeps the kernel
// slot incrementally (one division per node, zero buffer traffic).
type scanRun struct {
	start, count, step int
}

// runOf computes the cycles to try for a node, in preference order,
// following SMS: forward from the earliest start when predecessors
// dominate, backward from the latest when successors do, the
// intersection when both exist, and a fresh [0, II) scan otherwise.
//
// On clustered machines the one-sided scans extend beyond one II window:
// moving an operation a whole II later (or earlier) revisits the same
// reservation slot but gives its communications more slack, letting the
// SC grow instead of the II — the paper's §4 observation that
// "communication operations may increase the length of the schedule, and
// therefore the SC may be increased".  Bus patterns repeat with period
// II, so II+BusLatency extra cycles exhaust every distinct possibility.
//
//vliw:allocfree
func (st *state) runOf(w window) scanRun {
	span := st.ii
	if st.cfg.Clustered() {
		span += st.ii + st.cfg.BusLatency
	}
	switch {
	case w.hasEarly && !w.hasLate:
		start := w.early
		if !w.anchoredEarly && start < 0 {
			start = 0 // loop-carried-only bound: stay near the base
		}
		return scanRun{start: start, count: span, step: 1}
	case !w.hasEarly && w.hasLate:
		start := w.late
		if !w.anchoredLate && start > st.ii-1 {
			start = st.ii - 1
		}
		return scanRun{start: start, count: span, step: -1}
	case w.hasEarly && w.hasLate:
		if !w.anchoredEarly && w.anchoredLate {
			// The node's only same-iteration tie is to its successors:
			// approach them from the latest legal cycle downward instead of
			// drifting II*distance cycles early.
			lo := w.early
			if m := w.late - st.ii + 1; m > lo {
				lo = m
			}
			return scanRun{start: w.late, count: w.late - lo + 1, step: -1}
		}
		lo := w.early
		if !w.anchoredEarly && !w.anchoredLate && lo < 0 && w.late >= 0 {
			lo = 0 // both bounds loop-carried: stay near the base
		}
		hi := w.late
		if m := lo + st.ii - 1; m < hi {
			hi = m
		}
		return scanRun{start: lo, count: hi - lo + 1, step: 1}
	default:
		return scanRun{start: 0, count: st.ii, step: 1}
	}
}

// fillCycles computes everything about node n the per-cluster tries
// share: the candidate-cycle run, the kernel slot of its first cycle,
// and the node's communication template.
//
//vliw:allocfree
func (st *state) fillCycles(n int) {
	st.run = st.runOf(st.windowOf(n))
	if st.run.count > 0 {
		st.runSlot = st.res.slot(st.run.start)
	}
	st.buildNodeTpl(n)
}

// plannedComm is one bus reservation made while trying a placement.
// slot caches start mod II so release/re-reserve skip the division.
type plannedComm struct {
	producer, from, to int
	bus, start, slot   int
}

// commNeed describes one transfer that a tentative placement requires:
// producer's value must reach cluster `to`, leaving no earlier than
// `release` and arriving no later than `deadline`.
type commNeed struct {
	producer, from, to int
	release, deadline  int // transfer start range: [release, deadline-BusLatency]
}

// commNeeds appends to out the transfers required to place node n on
// cluster c at flat cycle t, deduplicated against committed transfers
// that already satisfy the timing.  Needs for the same (value,
// destination) are merged to the tightest window; the output order is
// the deterministic in-edge-then-out-edge encounter order.  Callers pass
// a scratch slice (typically buf[:0]).
//
// No scan calls it: it is the direct, per-cycle reference that the
// communication template (buildNodeTpl, planActs) is checked against
// under pressureChecks (checkActNeeds, checkWindowSkip) and in the
// state tests.
func (st *state) commNeeds(n, c, t int, out []commNeed) []commNeed {
	// Incoming values: scheduled producers in other clusters.
	for _, e := range st.fg.trueIn(n) {
		p := int(e.n)
		if p == n || !st.placed(p) {
			continue
		}
		pc := st.cluster[p]
		if pc == c {
			continue
		}
		out = mergeNeed(out, commNeed{
			producer: p, from: pc, to: c,
			release: st.time[p] + int(e.lat), deadline: t + st.ii*int(e.dist),
		})
	}
	// Outgoing values: scheduled consumers in other clusters.
	if st.fg.produces[n] {
		for _, e := range st.fg.trueOut(n) {
			m := int(e.n)
			if m == n || !st.placed(m) {
				continue
			}
			mc := st.cluster[m]
			if mc == c {
				continue
			}
			out = mergeNeed(out, commNeed{
				producer: n, from: c, to: mc,
				release: t + int(e.lat), deadline: st.time[m] + st.ii*int(e.dist),
			})
		}
	}

	// A committed transfer already covering the deadline serves all
	// consumers of this value in that cluster: drop the need.
	kept := out[:0]
	for i := range out {
		if st.satisfiedByExisting(&out[i]) {
			continue
		}
		kept = append(kept, out[i])
	}
	return kept
}

// mergeNeed tightens an existing need (same value, same destination):
// the single transfer must satisfy the earliest deadline and the latest
// release.
func mergeNeed(needs []commNeed, need commNeed) []commNeed {
	for i := range needs {
		if needs[i].producer == need.producer && needs[i].to == need.to {
			if need.deadline < needs[i].deadline {
				needs[i].deadline = need.deadline
			}
			if need.release > needs[i].release {
				needs[i].release = need.release
			}
			return needs
		}
	}
	return append(needs, need)
}

func (st *state) satisfiedByExisting(need *commNeed) bool {
	for _, idx := range st.byProd[need.producer] {
		tr := &st.transfers[idx]
		if tr.To == need.to && tr.Start >= need.release && tr.Start+st.cfg.BusLatency <= need.deadline {
			return true
		}
	}
	return false
}

// The communication needs of a tentative placement are affine in the
// candidate cycle t — an incoming value's release is fixed by its
// producer and the deadline slides with t (deadline = dl + t); an
// outgoing value's release slides (release = rel + t) and the deadline
// is fixed by the consumer.  The cluster only decides *which* entries
// apply (a counterpart on the candidate cluster needs no transfer), and
// merging for the same (value, destination) always combines entries of
// one slope pattern, where min/max of the bases is min/max of the
// instantiated bounds at every t.  So the template is built once per
// node (tplIn/tplOut, buildNodeTpl) together with the per-cluster
// feasibility intervals (tplMin/tplMax) and satisfied-by-existing
// thresholds (satInBuf/satOutBuf), and each cycle probe is two compares
// per need plus the actual bus scan — no edge walking, no need
// materialisation, no per-cluster activation pass.

// tplIn is a templated incoming need: producer p on cluster pc, release
// fixed at rel, deadline = dl + t.
type tplIn struct{ p, pc, rel, dl int }

// tplOut is a templated outgoing need: consumer cluster mc, release =
// rel + t, deadline fixed at dl.
type tplOut struct{ mc, rel, dl int }

// prodRead is one placed true-dependence producer of the node being
// tried, with the edge's iteration distance — the per-node list lets
// speculate skip the unplaced/self-edge filtering on every cluster.
type prodRead struct{ p, dist int }

// buildNodeTpl rebuilds the node's communication template (one walk of
// its true edges, merged per producer resp. consumer cluster, in
// commNeeds encounter order), then projects it onto every cluster at
// once: tplMin/tplMax hold each cluster's feasibility interval — a
// candidate cycle outside it is guaranteed to fail its bus planning —
// and satInBuf/satOutBuf fold satisfiedByExisting into thresholds on t.
// A committed transfer covers an incoming need exactly for
// t >= satInBuf[i*nc+c] (its arrival precedes the sliding deadline) and
// an outgoing need for t <= satOutBuf[j] (its start trails the sliding
// release; which transfers qualify does not depend on the candidate
// cluster) — at those cycles the entry is skipped, everywhere else it
// is planned.  Valid until the placement state changes.
//
//vliw:allocfree
func (st *state) buildNodeTpl(n int) {
	in := st.tplInBuf[:0]
	prods := st.prodBuf[:0]
	for _, e := range st.fg.trueIn(n) {
		p := int(e.n)
		if p == n || !st.placed(p) {
			continue
		}
		prods = append(prods, prodRead{p: p, dist: int(e.dist)})
		rel, dl := st.time[p]+int(e.lat), st.ii*int(e.dist)
		merged := false
		for i := range in {
			if in[i].p == p {
				if rel > in[i].rel {
					in[i].rel = rel
				}
				if dl < in[i].dl {
					in[i].dl = dl
				}
				merged = true
				break
			}
		}
		if !merged {
			in = append(in, tplIn{p: p, pc: st.cluster[p], rel: rel, dl: dl})
		}
	}
	st.tplInBuf = in
	st.prodBuf = prods

	st.selfMax = -1
	out := st.tplOutBuf[:0]
	if st.fg.produces[n] {
		for c := range st.endFix {
			st.endFix[c] = -tplIntMax - 1 // ends can be negative: no 0 sentinel
		}
		for _, e := range st.fg.trueOut(n) {
			m := int(e.n)
			if m == n {
				if d := int(e.dist); d > st.selfMax {
					st.selfMax = d
				}
				continue
			}
			if !st.placed(m) {
				continue
			}
			mc := st.cluster[m]
			if r := st.time[m] + st.ii*int(e.dist) + 1; r > st.endFix[mc] {
				st.endFix[mc] = r
			}
			rel, dl := int(e.lat), st.time[m]+st.ii*int(e.dist)
			merged := false
			for i := range out {
				if out[i].mc == mc {
					if rel > out[i].rel {
						out[i].rel = rel
					}
					if dl < out[i].dl {
						out[i].dl = dl
					}
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, tplOut{mc: mc, rel: rel, dl: dl})
			}
		}
	}
	st.tplOutBuf = out

	nc := st.cfg.NClusters
	lat := st.cfg.BusLatency
	for c := 0; c < nc; c++ {
		st.tplMin[c] = -tplIntMax - 1
		st.tplMax[c] = tplIntMax
	}
	if len(in)+len(out) == 0 {
		return
	}
	st.satInBuf = growInts(st.satInBuf, len(in)*nc)
	for i := range in {
		tp := &in[i]
		row := st.satInBuf[i*nc : (i+1)*nc]
		for c := range row {
			row[c] = tplIntMax
		}
		for _, idx := range st.byProd[tp.p] {
			tr := &st.transfers[idx]
			if tr.Start >= tp.rel {
				if v := tr.Start + lat - tp.dl; v < row[tr.To] {
					row[tr.To] = v
				}
			}
		}
		m := tp.rel + lat - tp.dl
		for c := 0; c < nc; c++ {
			if c != tp.pc && m > st.tplMin[c] {
				st.tplMin[c] = m
			}
		}
	}
	st.satOutBuf = growInts(st.satOutBuf, len(out))
	for j := range out {
		tp := &out[j]
		satT := -tplIntMax - 1
		for _, idx := range st.byProd[n] {
			tr := &st.transfers[idx]
			if tr.To == tp.mc && tr.Start+lat <= tp.dl {
				if v := tr.Start - tp.rel; v > satT {
					satT = v
				}
			}
		}
		st.satOutBuf[j] = satT
		m := tp.dl - lat - tp.rel
		for c := 0; c < nc; c++ {
			if c != tp.mc && m < st.tplMax[c] {
				st.tplMax[c] = m
			}
		}
	}
	if lat > st.ii && len(in)+len(out) > 0 {
		// No transfer can ever fit at this II (and none was ever
		// committed, so no entry is satisfied): any cluster with an
		// applicable entry gets an empty feasibility interval.
		for c := 0; c < nc; c++ {
			has := false
			for i := range in {
				if in[i].pc != c {
					has = true
					break
				}
			}
			for j := 0; !has && j < len(out); j++ {
				if out[j].mc != c {
					has = true
				}
			}
			if has {
				st.tplMin[c], st.tplMax[c] = 0, -1
			}
		}
	}
}

const tplIntMax = int(^uint(0) >> 1)

// planActs reserves buses for every template entry applicable to
// placing node n on cluster c at cycle t, first-fit earliest-start,
// appending to dst.  Entries whose counterpart lives on c, and entries
// covered by a committed transfer (the satisfied thresholds from
// buildNodeTpl), are skipped.  The cluster's feasibility interval
// [tplMin[c], tplMax[c]] marks the cycles outside which some entry's
// transfer window is empty (release > deadline - BusLatency); an
// empty-window entry can neither be planned nor be covered by a
// committed transfer (coverage needs the same non-empty window), so the
// caller rejects those cycles with zero planning work.  On failure
// planActs releases everything it reserved and returns dst[:0], false.
//
//vliw:allocfree
func (st *state) planActs(n, c, t int, dst []plannedComm) ([]plannedComm, bool) {
	plan := dst[:0]
	nc := st.cfg.NClusters
	for i := range st.tplInBuf {
		tp := &st.tplInBuf[i]
		if tp.pc == c || t >= st.satInBuf[i*nc+c] {
			continue
		}
		pc, ok := st.planTransfer(tp.p, tp.pc, c, tp.rel, tp.dl+t)
		if !ok {
			st.releasePlan(plan)
			return plan[:0], false
		}
		plan = append(plan, pc)
	}
	for j := range st.tplOutBuf {
		tp := &st.tplOutBuf[j]
		if tp.mc == c || t <= st.satOutBuf[j] {
			continue
		}
		pc, ok := st.planTransfer(n, c, tp.mc, tp.rel+t, tp.dl)
		if !ok {
			st.releasePlan(plan)
			return plan[:0], false
		}
		plan = append(plan, pc)
	}
	return plan, true
}

// planComms reserves buses for every need, first-fit earliest-start,
// appending to dst.  On failure it releases everything it reserved and
// returns dst[:0], false.  Like commNeeds it is reference only: the
// scans plan through planActs, and checkWindowSkip plans the direct
// needs with it.
//
//vliw:allocfree
func (st *state) planComms(needs []commNeed, dst []plannedComm) ([]plannedComm, bool) {
	plan := dst[:0]
	for _, need := range needs {
		pc, ok := st.planOne(need)
		if !ok {
			st.releasePlan(plan)
			return plan[:0], false
		}
		plan = append(plan, pc)
	}
	return plan, true
}

//vliw:allocfree
func (st *state) planOne(need commNeed) (plannedComm, bool) {
	return st.planTransfer(need.producer, need.from, need.to, need.release, need.deadline)
}

// planTransfer finds the earliest feasible bus start in
// [release, deadline-BusLatency] — lowest bus on ties, the first-fit
// order the cycle-by-cycle scan used — and reserves it.  Bus occupancy
// repeats modulo II, so at most II distinct starts exist and each bus
// is asked for its first feasible start with one bitset scan
// (mrt.busScan) instead of a per-slot probing loop.
//
//vliw:allocfree
func (st *state) planTransfer(producer, from, to, release, deadline int) (plannedComm, bool) {
	lat := st.cfg.BusLatency
	lastStart := deadline - lat
	if lastStart < release {
		return plannedComm{}, false
	}
	n := lastStart - release + 1
	if n > st.ii {
		n = st.ii
	}
	s0 := st.res.slot(release)
	bestK, bestB := -1, -1
	for b := 0; b < st.cfg.NBuses; b++ {
		if k := st.res.busScan(b, s0, n); k >= 0 && (bestK < 0 || k < bestK) {
			bestK, bestB = k, b
		}
	}
	if bestK < 0 {
		return plannedComm{}, false
	}
	s := s0 + bestK
	if s >= st.ii {
		s -= st.ii
	}
	st.res.reserveBusSlot(bestB, s)
	return plannedComm{producer: producer, from: from, to: to,
		bus: bestB, start: release + bestK, slot: s}, true
}

//vliw:allocfree
func (st *state) releasePlan(plan []plannedComm) {
	for _, pc := range plan {
		st.res.releaseBusSlot(pc.bus, pc.slot)
	}
}

// effEnd maps a transfer's consumer-side bound to the end of its
// pressure interval: a value read no later than arrival+1 is consumed
// straight from the incoming-value register and holds no local register,
// so its effective interval [arrival, effEnd) is empty.
//
//vliw:allocfree
func effEnd(arrival, last int) int {
	if last > arrival+1 {
		return last
	}
	return arrival
}

// place commits node n at (cluster c, cycle t) with its communication
// plan, updating the per-cluster pressure tables with exactly the
// lifetime segments the placement creates.  The bus slots in plan are
// already reserved by the caller (commit, or planActs before a
// crossCheckSpeculate replay).
//
//vliw:allocfree
func (st *state) place(n, c, t int, plan []plannedComm) {
	st.placeAt(n, c, t, st.res.slot(t), plan)
}

// placeAt is place with the kernel slot precomputed (the try path
// already knows it).
//
//vliw:allocfree
func (st *state) placeAt(n, c, t, slot int, plan []plannedComm) {
	st.res.reserveFUSlot(c, st.fg.class[n], slot)
	st.mark[n] = len(st.undo)
	st.placedEpoch[n] = st.epoch
	st.time[n] = t
	st.cluster[n] = c

	// n as consumer: extend the producer-side lifetime of same-cluster
	// producers, and the consumer-side lifetime of committed transfers
	// that cover the new read.  (Self-edges are n's own lifetime,
	// handled below; plan transfers are appended afterwards so this loop
	// only sees committed ones.)
	for _, e := range st.fg.trueIn(n) {
		p := int(e.n)
		if p == n || !st.placed(p) {
			continue
		}
		read := t + st.ii*int(e.dist)
		if st.cluster[p] == c {
			if read+1 > st.lifeEnd[p] {
				st.undo = append(st.undo, undoRec{kind: uLifeEnd, x: p, y: st.lifeEnd[p]})
				st.press[c].Add(st.lifeEnd[p], read+1)
				st.lifeEnd[p] = read + 1
			}
		} else {
			for _, idx := range st.byProd[p] {
				tr := &st.transfers[idx]
				if tr.To != c {
					continue
				}
				arrival := tr.Start + st.cfg.BusLatency
				if read >= arrival && read+1 > st.transLast[idx] {
					old := st.transLast[idx]
					st.undo = append(st.undo, undoRec{kind: uTransLast, x: int(idx), y: old})
					st.press[c].Add(effEnd(arrival, old), read+1)
					st.transLast[idx] = read + 1
				}
			}
		}
	}

	// n's own value: live from issue to its last already-placed
	// same-cluster read (self-edges included); bus writes extend it in
	// the transfer loop below.
	if st.fg.produces[n] {
		end := t + 1
		for _, e := range st.fg.trueOut(n) {
			m := int(e.n)
			if !st.placed(m) || st.cluster[m] != c {
				continue
			}
			if r := st.time[m] + st.ii*int(e.dist) + 1; r > end {
				end = r
			}
		}
		st.lifeEnd[n] = end
		st.press[c].Add(t, end)
		st.undo = append(st.undo, undoRec{kind: uInterval, x: c, y: t, z: end})
	}

	// New transfers: producer-side hold until the bus write, and a fresh
	// consumer-side lifetime over every placed read the arrival covers.
	for _, pc := range plan {
		idx := len(st.transfers)
		st.transfers = append(st.transfers, Transfer{
			Producer: pc.producer, From: pc.from, To: pc.to, Bus: pc.bus, Start: pc.start,
		})
		st.byProd[pc.producer] = append(st.byProd[pc.producer], int32(idx))

		if end := pc.start + 1; end > st.lifeEnd[pc.producer] {
			st.undo = append(st.undo, undoRec{kind: uLifeEnd, x: pc.producer, y: st.lifeEnd[pc.producer]})
			st.press[pc.from].Add(st.lifeEnd[pc.producer], end)
			st.lifeEnd[pc.producer] = end
		}

		arrival := pc.start + st.cfg.BusLatency
		last := arrival
		for _, e := range st.fg.trueOut(pc.producer) {
			m := int(e.n)
			if !st.placed(m) || st.cluster[m] != pc.to {
				continue
			}
			read := st.time[m] + st.ii*int(e.dist)
			if read >= arrival && read+1 > last {
				last = read + 1
			}
		}
		st.transLast = append(st.transLast, last)
		if last > arrival+1 {
			st.press[pc.to].Add(arrival, last)
			st.undo = append(st.undo, undoRec{kind: uInterval, x: pc.to, y: arrival, z: last})
		}
	}

	if pressureChecks {
		st.checkPressure("place") //vliw:alloc-ok debug-gated differential oracle (pressureChecks)
	}
}

// unplace exactly reverses place: the plan's transfers are popped from
// the tail and the pressure mutations are rewound from the undo log
// down to the mark saved at placement.
//
//vliw:allocfree
func (st *state) unplace(n int, plan []plannedComm) {
	st.res.releaseFU(st.cluster[n], st.fg.class[n], st.time[n])
	for range plan {
		idx := len(st.transfers) - 1
		tr := st.transfers[idx]
		lst := st.byProd[tr.Producer]
		st.byProd[tr.Producer] = lst[:len(lst)-1]
		st.res.releaseBus(tr.Bus, tr.Start)
		st.transfers = st.transfers[:idx]
		st.transLast = st.transLast[:idx]
	}
	for len(st.undo) > st.mark[n] {
		u := st.undo[len(st.undo)-1]
		st.undo = st.undo[:len(st.undo)-1]
		switch u.kind {
		case uInterval:
			st.press[u.x].Sub(u.y, u.z)
		case uLifeEnd:
			st.press[st.cluster[u.x]].Sub(u.y, st.lifeEnd[u.x])
			st.lifeEnd[u.x] = u.y
		case uTransLast:
			tr := &st.transfers[u.x]
			arrival := tr.Start + st.cfg.BusLatency
			st.press[tr.To].Sub(effEnd(arrival, u.y), effEnd(arrival, st.transLast[u.x]))
			st.transLast[u.x] = u.y
		}
	}
	st.placedEpoch[n] = 0
	st.cluster[n] = -1

	if pressureChecks {
		st.checkPressure("unplace") //vliw:alloc-ok debug-gated differential oracle (pressureChecks)
	}
}

// fits reports whether every cluster's register file still holds its
// MaxLive — O(NClusters) thanks to the incremental tables.
//
//vliw:allocfree
func (st *state) fits() bool {
	for c := range st.press {
		if !st.press[c].Fits() {
			return false
		}
	}
	return true
}

// shadowOf returns cluster x's speculation shadow, snapshotting the
// live table on the cluster's first touch in this speculation.
//
//vliw:allocfree
func (st *state) shadowOf(x int) *regpress.Shadow {
	if !st.shadowDirty[x] {
		st.shadowDirty[x] = true
		st.dirtyList = append(st.dirtyList, x)
		st.shadow[x].Snapshot(&st.press[x])
	}
	return &st.shadow[x]
}

// lifeCur reads producer p's lifetime end as of the current
// speculation, lazily seeding the stamped temporary from the live
// value.
//
//vliw:allocfree
func (st *state) lifeCur(p int) int {
	if st.lifeStamp[p] != st.specEpoch {
		st.lifeStamp[p] = st.specEpoch
		st.lifeTmp[p] = st.lifeEnd[p]
	}
	return st.lifeTmp[p]
}

// transCur is lifeCur for a committed transfer's consumer-side bound.
//
//vliw:allocfree
func (st *state) transCur(idx int) int {
	if st.transStamp[idx] != st.specEpoch {
		st.transStamp[idx] = st.specEpoch
		st.transTmp[idx] = st.transLast[idx]
	}
	return st.transTmp[idx]
}

// speculate reports whether placing node n at (cluster c, cycle t) with
// the given communication plan would keep every register file within
// capacity, and the candidate cluster's resulting MaxLive.  It mirrors
// place's pressure bookkeeping exactly, but applies the would-be
// lifetime segments to per-cluster shadow snapshots: the live tables,
// reservation rows, transfer logs and undo stack are untouched, and an
// abandoned speculation costs nothing to roll back.  The bus slots in
// plan are reserved (planActs ran) but buses carry no pressure, so the
// plan is consumed purely as timing data.
//
//vliw:allocfree
func (st *state) speculate(n, c, t int, plan []plannedComm) (bool, int) {
	if !st.specBegin() {
		return false, 0
	}
	ii := st.ii

	// n as consumer: extensions of same-cluster producers and of
	// committed transfers covering the new read.  The placed producers
	// were collected once per node by buildNodeTpl.
	for _, pr := range st.prodBuf {
		p := pr.p
		read := t + ii*pr.dist
		if st.cluster[p] == c {
			cur := st.lifeCur(p)
			if read+1 > cur {
				st.shadowOf(c).Add(cur, read+1)
				st.lifeTmp[p] = read + 1
			}
		} else {
			for _, idx := range st.byProd[p] {
				tr := &st.transfers[idx]
				if tr.To != c {
					continue
				}
				arrival := tr.Start + st.cfg.BusLatency
				cur := st.transCur(int(idx))
				if read >= arrival && read+1 > cur {
					st.shadowOf(c).Add(effEnd(arrival, cur), read+1)
					st.transTmp[idx] = read + 1
				}
			}
		}
	}

	// n's own value, reads by already-placed same-cluster consumers and
	// self-edges included (n acts as its own placed consumer at (c, t));
	// both were folded per cluster by buildNodeTpl.
	if st.fg.produces[n] {
		end := t + 1
		if st.selfMax >= 0 {
			if r := t + ii*st.selfMax + 1; r > end {
				end = r
			}
		}
		if r := st.endFix[c]; r > end {
			end = r
		}
		st.shadowOf(c).Add(t, end)
		st.lifeStamp[n] = st.specEpoch
		st.lifeTmp[n] = end
	}

	// Plan transfers: producer-side hold until the bus write, and a
	// fresh consumer-side lifetime over every read the arrival covers —
	// with n itself counting as placed at (c, t).
	for _, pc := range plan {
		cur := st.lifeCur(pc.producer)
		if end := pc.start + 1; end > cur {
			st.shadowOf(pc.from).Add(cur, end)
			st.lifeTmp[pc.producer] = end
		}
		arrival := pc.start + st.cfg.BusLatency
		if last := st.transferLast(n, c, t, pc, true); last > arrival+1 {
			st.shadowOf(pc.to).Add(arrival, last)
		}
	}
	for _, dc := range st.dirtyList {
		if !st.shadow[dc].Fits() {
			return false, 0
		}
	}
	if st.shadowDirty[c] {
		return true, st.shadow[c].Max()
	}
	return true, st.press[c].Max()
}

// specBegin starts a speculation on empty shadows.  It reports false
// when a live table already overflows: a placement only ever adds
// pressure, so nothing can start fitting by placing more, mirroring the
// place-then-check contract exactly.
//
//vliw:allocfree
func (st *state) specBegin() bool {
	if !st.fits() {
		return false
	}
	st.specEpoch++
	for _, dc := range st.dirtyList {
		st.shadowDirty[dc] = false
	}
	st.dirtyList = st.dirtyList[:0]
	if len(st.transStamp) < len(st.transfers) {
		st.transStamp = growInt32s(st.transStamp[:0], len(st.transfers))
		for i := range st.transStamp {
			st.transStamp[i] = 0
		}
		st.transTmp = growInts(st.transTmp, len(st.transfers))
		st.specEpoch++ // stale stamps were dropped; never match them
	}
	return true
}

// transferLast is the consumer-side bound of plan transfer pc for node
// n placed at (c, t): the latest read+1 among the destination
// cluster's placed consumers whose read the arrival covers, at least
// the arrival itself.  withN counts n as one of those consumers.
//
//vliw:allocfree
func (st *state) transferLast(n, c, t int, pc plannedComm, withN bool) int {
	arrival := pc.start + st.cfg.BusLatency
	last := arrival
	for _, e := range st.fg.trueOut(pc.producer) {
		m := int(e.n)
		var mc, mt int
		if m == n {
			if !withN {
				continue
			}
			mc, mt = c, t
		} else if st.placed(m) {
			mc, mt = st.cluster[m], st.time[m]
		} else {
			continue
		}
		if mc != pc.to {
			continue
		}
		read := mt + st.ii*int(e.dist)
		if read >= arrival && read+1 > last {
			last = read + 1
		}
	}
	return last
}

// crossCheckSpeculate replays a speculation through the mutating
// place/fits/unplace path and panics on any verdict divergence — the
// differential that keeps the shadow bookkeeping honest.  Enabled with
// pressureChecks; the plan's bus slots must still be reserved, and are
// left exactly as found.
//
//vliw:allocfree
func (st *state) crossCheckSpeculate(n, c, t int, plan []plannedComm, ok bool, live int) {
	st.place(n, c, t, plan)
	wantOK := st.fits()
	wantLive := 0
	if wantOK {
		wantLive = st.press[c].Max()
	}
	st.unplace(n, plan)
	// unplace released the plan's bus reservations; restore them so the
	// caller's view is unchanged.
	for _, pc := range plan {
		st.res.reserveBus(pc.bus, pc.start)
	}
	if ok != wantOK || (ok && live != wantLive) {
		panic("sched: speculate diverged from place/fits/unplace")
	}
}

// tryResult is a feasible placement found by try.
type tryResult struct {
	cycle   int
	slot    int // cycle mod II, cached for commit
	plan    []plannedComm
	maxLive int // resulting MaxLive of the candidate cluster
}

// try searches for a feasible (cycle, comm plan) for node n on cluster
// c, leaving the state untouched.  reached reports how far the search
// got, for failure diagnosis: CauseFU if no cycle had a free unit,
// CauseComm if communications never fit, CauseReg if only the register
// check failed.
//
//vliw:allocfree
func (st *state) try(n, c int) (tryResult, FailCause) {
	st.fillCycles(n)
	if cause := st.tryCycles(n, c, nil); cause != CauseNone {
		return tryResult{}, cause
	}
	return st.tryRes[c], CauseNone
}

// tryCycles is try with the node's scan state (cycle run, first slot,
// comm template — fillCycles) precomputed, so the BSA driver computes
// each node's window once and shares it across the cluster candidates
// (the window does not depend on the cluster).  On success the result
// is written to the per-cluster slot st.tryRes[c] — not returned by
// value, keeping the hot selection loop free of 64-byte struct copies —
// and its plan lives in the per-cluster keep buffer: both valid until
// the next try of the same cluster, which is exactly the candidate
// lifetime of the BSA selection loop.
//
// With all non-nil the scan does not stop at the first fit: every
// feasible placement is appended to *all in scan order, each with its
// own copy of the plan, and the scan runs to the end of the cycle run —
// the enumeration Attempt.Choices hands to the exact oracle, so the
// oracle branches over exactly the probes BSA makes.  The returned cause
// then describes the probes that failed.
//
// A probe that fails only its register check can prove that the probes
// after it fail too.  Along a run, some of the lifetime segments a
// placement adds never shrink — its persistent arcs (regSkip lists
// them per direction): the extensions of placed producers, a committed
// transfer's consumer-side hold and a planned incoming transfer's two
// holds each keep a fixed start while their end only grows with t, and
// an outgoing transfer's consumer-side hold always covers [deadline,
// last read] however its start moves.  The planned incoming transfers
// themselves stay put while the set of template entries a committed
// transfer already satisfies stays the same: their bus windows only
// grow (forward) or only shrink (backward) around the same earliest
// free start, so the plan is identical or fails.  So when the
// persistent arcs alone overflow a register file, every probe up to the
// next satisfied-set change fails as well — by its register check if
// not earlier — and the scan jumps there.  Once a register failure is
// recorded the verdict is CauseReg either way, so the skip changes
// neither the placement found nor the failure reported.
//
//vliw:allocfree
func (st *state) tryCycles(n, c int, all *[]Choice) FailCause {
	class := st.fg.class[n]
	reached := CauseFU
	// The node's communication template (fillCycles) is already
	// projected onto every cluster: the feasibility interval rejects
	// most cycles of a failing scan with two compares, and surviving
	// cycles go straight to the bus scan — no edge walks or need
	// materialisation per probe.
	tMin, tMax := st.tplMin[c], st.tplMax[c]
	r, s, ii := st.run, st.runSlot, st.ii
	for i, t := 0, r.start; i < r.count; i, t = i+1, t+r.step {
		if i > 0 {
			// The run is monotone: the kernel slot steps with the cycle.
			s += r.step
			if s == ii {
				s = 0
			} else if s < 0 {
				s = ii - 1
			}
		}
		if !st.res.fuFreeSlot(c, class, s) {
			continue
		}
		if t < tMin || t > tMax {
			// Some transfer's start window is empty at this cycle.
			if pressureChecks {
				st.checkWindowSkip(n, c, t) //vliw:alloc-ok debug-gated window-skip oracle (pressureChecks)
			}
			if reached == CauseFU {
				reached = CauseComm
			}
			continue
		}
		if pressureChecks {
			st.checkActNeeds(n, c, t) //vliw:alloc-ok debug-gated act-needs oracle (pressureChecks)
		}
		plan, ok := st.planActs(n, c, t, st.keepBuf[c][:0])
		st.keepBuf[c] = plan
		if !ok {
			if reached == CauseFU {
				reached = CauseComm
			}
			continue
		}
		// Register check on the hypothetical state, against shadow
		// tables: nothing to roll back either way.
		fits, live := st.speculate(n, c, t, plan)
		if pressureChecks {
			st.crossCheckSpeculate(n, c, t, plan, fits, live)
		}
		// The plan's bus slots are released either way: the caller
		// re-applies the plan on commit.
		st.releasePlan(plan)
		if fits {
			if all == nil {
				st.tryRes[c] = tryResult{cycle: t, slot: s, plan: plan, maxLive: live}
				return CauseNone
			}
			// Collect mode (Attempt.Choices): the plan lives in the keep
			// buffer the next probe reuses, so the choice keeps its own copy.
			//vliw:alloc-ok collect mode only: each choice outlives the scan
			kept := append([]plannedComm(nil), plan...)
			ch := Choice{Cluster: c, Cycle: t, res: tryResult{cycle: t, slot: s, plan: kept, maxLive: live}}
			*all = append(*all, ch) //vliw:alloc-ok collect mode only: the enumeration is the result
			continue
		}
		reached = CauseReg
		if k := st.regSkip(n, c, t, plan, r.count-1-i); k > 0 {
			if pressureChecks {
				st.checkRegSkip(n, c, t, k) //vliw:alloc-ok debug-gated register-skip oracle (pressureChecks)
			}
			i += k
			t += k * r.step
			s = st.res.slot(t)
		}
	}
	return reached
}

// regSkip runs after speculate rejected node n at (c, t) with plan, and
// returns how many of the next `left` cycles of the scan run are proven
// to fail as well: all of them up to the next change of the set of
// template entries a committed transfer satisfies, when the persistent
// arcs (see tryCycles) overflow a register file at t, and 0 otherwise.
// Every arc added here is covered by the arcs speculate would add at
// each skipped cycle, so the shadows read a lower bound of its
// pressure there:
//
//   - forward runs: the extensions of same-cluster producers and of
//     committed transfers into c (each as the union [fixed start,
//     latest read+1) of speculate's chain of segments);
//   - backward runs: n's own value over [t, last placed same-cluster
//     read], which the value covers from any earlier issue cycle;
//   - both: each planned incoming transfer's producer-side hold and its
//     consumer-side hold (backward: up to placed reads only, since n's
//     reads move earlier), and each unsatisfied outgoing entry's
//     consumer-side hold over [deadline, last read] on its cluster —
//     the transfer arrives by the deadline wherever its start lands.
//     Backward, the first outgoing transfer's hold starts at its
//     planned arrival instead: it is planned on the same bus state
//     (committed transfers plus the unchanged incoming plan) from an
//     earlier release, so its earliest free start can only move
//     earlier.
//
// A forward run loses an incoming entry when a committed transfer
// starts to cover it; a backward run gains one when its coverage ends,
// and starts planning an outgoing entry its committed transfers stop
// covering.  Those thresholds bound the skip.
//
//vliw:allocfree
func (st *state) regSkip(n, c, t int, plan []plannedComm, left int) int {
	fwd := st.run.step > 0
	nc := st.cfg.NClusters
	lim := left
	for i := range st.tplInBuf {
		tp := &st.tplInBuf[i]
		sat := st.satInBuf[i*nc+c]
		switch {
		case tp.pc == c || sat == tplIntMax:
		case fwd && t < sat && sat-1-t < lim:
			lim = sat - 1 - t
		case !fwd && t >= sat && t-sat < lim:
			lim = t - sat
		}
	}
	if !fwd {
		for j := range st.tplOutBuf {
			sat := st.satOutBuf[j]
			if st.tplOutBuf[j].mc != c && sat != -tplIntMax-1 && t > sat && t-sat-1 < lim {
				lim = t - sat - 1
			}
		}
	}
	if lim <= 0 {
		return 0
	}
	if !st.specBegin() {
		return left
	}
	ii, lat := st.ii, st.cfg.BusLatency
	if fwd {
		for _, pr := range st.prodBuf {
			p := pr.p
			read := t + ii*pr.dist
			if st.cluster[p] == c {
				if cur := st.lifeCur(p); read+1 > cur {
					st.shadowOf(c).Add(cur, read+1)
					st.lifeTmp[p] = read + 1
				}
				continue
			}
			for _, idx := range st.byProd[p] {
				tr := &st.transfers[idx]
				if tr.To != c {
					continue
				}
				arrival := tr.Start + lat
				if cur := st.transCur(int(idx)); read >= arrival && read+1 > cur {
					lo := cur
					if cur == st.transLast[idx] {
						lo = effEnd(arrival, cur)
					}
					st.shadowOf(c).Add(lo, read+1)
					st.transTmp[idx] = read + 1
				}
			}
		}
	} else if st.fg.produces[n] && st.endFix[c] > t {
		st.shadowOf(c).Add(t, st.endFix[c])
	}
	first, haveFirst := 0, false
	for _, pc := range plan {
		if pc.producer == n {
			// Outgoing holds are bounded below from the template; a
			// backward run keeps the first one's arrival.
			if !fwd && !haveFirst {
				first, haveFirst = pc.start+lat, true
			}
			continue
		}
		if end, cur := pc.start+1, st.lifeEnd[pc.producer]; end > cur {
			st.shadowOf(pc.from).Add(cur, end)
		}
		arrival := pc.start + lat
		if last := st.transferLast(n, c, t, pc, fwd); last > arrival+1 {
			st.shadowOf(c).Add(arrival, last)
		}
	}
	for j := range st.tplOutBuf {
		tp := &st.tplOutBuf[j]
		if tp.mc == c || t <= st.satOutBuf[j] {
			continue
		}
		lo := tp.dl
		if haveFirst {
			lo, haveFirst = first, false
		}
		if end := st.endFix[tp.mc]; end > lo+1 {
			st.shadowOf(tp.mc).Add(lo, end)
		}
	}
	for _, dc := range st.dirtyList {
		if !st.shadow[dc].Fits() {
			return lim
		}
	}
	return 0
}

// commit re-applies a placement previously found by try.  Nothing
// changed in between, so the identical reservations must succeed.
//
//vliw:allocfree
func (st *state) commit(n, c int, r tryResult) {
	for _, pc := range r.plan {
		if !st.res.busFreeSlot(pc.bus, pc.slot) {
			panic("sched: committed transfer no longer fits")
		}
		st.res.reserveBusSlot(pc.bus, pc.slot)
	}
	st.placeAt(n, c, r.cycle, r.slot, r.plan)
}

// referenceLifetimes rebuilds every cluster's lifetime list from
// scratch, exactly as the incremental tables model them: each placed
// value lives in its cluster from issue until its last same-cluster read
// or bus write, and each transfer adds a consumer-side hold from arrival
// to the last read it covers.  This is the slow O(V+E) oracle the
// incremental tables replaced; it survives as the differential/fuzz
// check (checkPressure) and for failure diagnostics.
func (st *state) referenceLifetimes() [][]regpress.Lifetime {
	lts := make([][]regpress.Lifetime, st.cfg.NClusters)
	for _, node := range st.g.Nodes() {
		if !st.placed(node.ID) || !node.Class.ProducesValue() {
			continue
		}
		pc, pt := st.cluster[node.ID], st.time[node.ID]
		end := pt + 1
		for _, e := range st.g.OutEdges(node.ID) {
			if e.Kind != ddg.DepTrue || !st.placed(e.To) {
				continue
			}
			if st.cluster[e.To] != pc {
				continue
			}
			if r := st.time[e.To] + st.ii*e.Distance + 1; r > end {
				end = r
			}
		}
		for _, idx := range st.byProd[node.ID] {
			if r := st.transfers[idx].Start + 1; r > end {
				end = r
			}
		}
		lts[pc] = append(lts[pc], regpress.Lifetime{Start: pt, End: end})

		for _, idx := range st.byProd[node.ID] {
			tr := st.transfers[idx]
			arrival := tr.Start + st.cfg.BusLatency
			last := arrival
			for _, e := range st.g.OutEdges(node.ID) {
				if e.Kind != ddg.DepTrue || !st.placed(e.To) {
					continue
				}
				if st.cluster[e.To] != tr.To {
					continue
				}
				read := st.time[e.To] + st.ii*e.Distance
				if read >= arrival && read+1 > last {
					last = read + 1
				}
			}
			if last > arrival+1 {
				lts[tr.To] = append(lts[tr.To], regpress.Lifetime{Start: arrival, End: last})
			}
		}
	}
	return lts
}

// profit implements the paper's cluster-selection metric: the change in
// cluster c's outgoing true-dependence edges if n joined it.  Edges from
// c's members into n become internal (+1 each); n's own out-edges to
// nodes outside c leak (-1 each; unscheduled consumers count as outside,
// exactly as in Figure 5 where tmpoutedges counts edges "to the rest of
// nodes").
//
//vliw:allocfree
func (st *state) profit(n, c int) int {
	p := 0
	for _, e := range st.fg.trueIn(n) {
		v := int(e.n)
		if v != n && st.placed(v) && st.cluster[v] == c {
			p++
		}
	}
	for _, e := range st.fg.trueOut(n) {
		v := int(e.n)
		if v == n {
			continue
		}
		if !(st.placed(v) && st.cluster[v] == c) {
			p--
		}
	}
	return p
}

// profits computes profit(n, c) for every cluster in one edge walk
// (valid until the placement state changes): profit = (placed
// in-producers on c) - (out-consumers not placed on c), so accumulating
// per-cluster in/out counts and subtracting the total out-degree gives
// all clusters at once.
//
//vliw:allocfree
func (st *state) profits(n int) []int {
	buf := st.profitBuf
	for c := range buf {
		buf[c] = 0
	}
	for _, e := range st.fg.trueIn(n) {
		v := int(e.n)
		if v != n && st.placed(v) {
			buf[st.cluster[v]]++
		}
	}
	totalOut := 0
	for _, e := range st.fg.trueOut(n) {
		v := int(e.n)
		if v == n {
			continue
		}
		totalOut++
		if st.placed(v) {
			buf[st.cluster[v]]++
		}
	}
	for c := range buf {
		buf[c] -= totalOut
	}
	return buf
}

// neighborsInAll counts, for every cluster, n's scheduled predecessors
// and successors living there (tie-break (7) of the selection
// heuristics), in one pair of edge walks.  Distinct neighbours are
// counted once per direction (a node that is both predecessor and
// successor counts twice, matching ddg.Preds + Succs); the seen-stamp
// scratch keeps the dedup allocation-free.
//
//vliw:allocfree
func (st *state) neighborsInAll(n int) []int {
	buf := st.nbBuf
	for c := range buf {
		buf[c] = 0
	}
	st.seenEpoch++
	for _, e := range st.fg.allIn(n) {
		v := int(e.n)
		if v != n && st.seen[v] != st.seenEpoch && st.placed(v) {
			st.seen[v] = st.seenEpoch
			buf[st.cluster[v]]++
		}
	}
	st.seenEpoch++
	for _, e := range st.fg.allOut(n) {
		v := int(e.n)
		if v != n && st.seen[v] != st.seenEpoch && st.placed(v) {
			st.seen[v] = st.seenEpoch
			buf[st.cluster[v]]++
		}
	}
	return buf
}

// anyNeighborScheduled reports whether any predecessor or successor of n
// is already placed — when none is, n starts a new subgraph and the
// default cluster advances (Figure 5, step 2).
//
//vliw:allocfree
func (st *state) anyNeighborScheduled(n int) bool {
	for _, e := range st.fg.allIn(n) {
		if int(e.n) != n && st.placed(int(e.n)) {
			return true
		}
	}
	for _, e := range st.fg.allOut(n) {
		if int(e.n) != n && st.placed(int(e.n)) {
			return true
		}
	}
	return false
}
