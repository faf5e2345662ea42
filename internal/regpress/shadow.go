package regpress

// Shadow is a speculative view of a Table: the live table plus a few
// would-be live-range additions, answered without copying or mutating
// the table.  The scheduler snapshots a cluster's live table, adds the
// candidate placement's lifetime segments, and reads the verdict — no
// undo log, no Sub pass, and abandoning a speculation costs nothing.
//
// Snapshot only records the table; Add keeps the speculated ranges'
// full wraps as one scalar and the rest as at most two slot arcs each.
// Fits and Max then take the maximum, over the elementary segments the
// arc endpoints cut [0, II) into, of the table's range maximum plus the
// segment's arc cover: O(arcs · (16 + II/16)) per query instead of an
// O(II) copy plus O(lifetime length) of per-slot bumps.  At IIs up to
// flatII several arcs are folded in one pass over the slots instead,
// which is cheaper there than sorting endpoints.  A Shadow reads the
// live table directly, so it is valid only until that table next
// changes.  One Shadow per cluster is reused for the whole scheduling
// run, so the steady state allocates nothing.
type Shadow struct {
	t    *Table
	full int   // speculated full wraps: added to every slot
	arcs []int // speculated slot arcs, flattened [a0, b0, a1, b1, ...]: each [a, b) adds 1
	ev   []int // arcPeak scratch: sorted arc endpoint events
	diff []int // flatPeak scratch: cover deltas per slot, all zero between calls

	peak   int  // cached Max, valid when peakOK
	peakOK bool // false after Snapshot or Add
}

// Snapshot starts a speculation on top of t's current state.
//
//vliw:allocfree
func (s *Shadow) Snapshot(t *Table) {
	s.t = t
	s.full = 0
	s.arcs = s.arcs[:0]
	s.peakOK = false
}

// Add adds one live-range instance over the flat-cycle interval
// [lo, hi) to the speculated state, exactly like Table.Add.
//
//vliw:allocfree
func (s *Shadow) Add(lo, hi int) {
	if hi <= lo {
		return
	}
	full, a, n := split(lo, hi, s.t.ii)
	s.full += full
	switch b := a + n; {
	case n == 0:
	case b <= s.t.ii:
		s.arcs = append(s.arcs, a, b)
	default: // wraps past the last slot
		s.arcs = append(s.arcs, a, s.t.ii, 0, b-s.t.ii)
	}
	s.peakOK = false
}

// Fits reports whether every slot of the speculated state is within
// capacity.
//
//vliw:allocfree
func (s *Shadow) Fits() bool {
	s.t.refresh()
	base := s.t.max + s.full
	if base > s.t.limit {
		return false
	}
	if base+len(s.arcs)/2 <= s.t.limit {
		return true // even if every arc stacked on the peak slot
	}
	return s.Max() <= s.t.limit
}

// Max returns the speculated MaxLive.
//
//vliw:allocfree
func (s *Shadow) Max() int {
	if !s.peakOK {
		s.peak = s.full + s.arcPeak()
		s.peakOK = true
	}
	return s.peak
}

// arcPeak returns the maximum over all slots of the table's pressure
// plus the number of speculated arcs covering the slot.
//
//vliw:allocfree
func (s *Shadow) arcPeak() int {
	t := s.t
	t.refresh()
	best := t.max
	switch {
	case len(s.arcs) == 0:
		return best
	case len(s.arcs) == 2:
		return max(best, t.rangeMax(s.arcs[0], s.arcs[1])+1)
	case t.ii <= flatII:
		return s.flatPeak()
	}
	// Sweep the arc endpoints in slot order: between two consecutive
	// endpoints the cover is constant.  An event is pos<<1|1 for an
	// arc start and pos<<1 for an end, so at equal positions ends sort
	// first.
	ev := s.ev[:0]
	for k := 0; k < len(s.arcs); k += 2 {
		ev = append(ev, s.arcs[k]<<1|1, s.arcs[k+1]<<1)
	}
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j] < ev[j-1]; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
	s.ev = ev
	cover := 0
	for i, e := range ev[:len(ev)-1] {
		cover += e&1<<1 - 1
		lo, hi := e>>1, ev[i+1]>>1
		// t.max bounds the segment's range maximum: skip segments
		// that cannot beat the best so far.
		if lo < hi && t.max+cover > best {
			best = max(best, t.rangeMax(lo, hi)+cover)
		}
	}
	return best
}

// flatII is the largest II at which several arcs are folded by one
// pass over the slots instead of the endpoint sweep: below it the
// sort and the per-segment range queries cost more than the scan.
const flatII = 32

// flatPeak is arcPeak by a single pass over the table's slots, the
// arcs' cover kept as a difference array.
//
//vliw:allocfree
func (s *Shadow) flatPeak() int {
	t := s.t
	if len(s.diff) <= t.ii {
		s.diff = make([]int, flatII+1) //vliw:alloc-ok amortized: one scratch per Shadow, reused across speculations
	}
	diff := s.diff
	for k := 0; k < len(s.arcs); k += 2 {
		diff[s.arcs[k]]++
		diff[s.arcs[k+1]]--
	}
	best, cover := 0, 0
	for i, p := range t.slots {
		cover += diff[i]
		best = max(best, p+cover)
	}
	for _, x := range s.arcs {
		diff[x] = 0
	}
	return best
}
