package regpress

// Table is an incrementally maintained modulo register-pressure table:
// the per-slot pressure of a set of lifetimes, kept up to date as
// individual live ranges are added and removed instead of being
// recomputed from scratch.  Pressure is additive over splitting a live
// range — the contribution of [lo, hi) to slot s is the number of cycles
// in the interval congruent to s mod II — so extending a lifetime from
// end e1 to e2 is exactly Add(e1, e2) and the inverse is Sub(e1, e2).
// That additivity is what lets the scheduler undo placements in
// O(lifetime length) instead of rebuilding everything (the Pressure
// function is the from-scratch oracle the fuzz tests compare against).
//
// Beside the flat per-slot array the table keeps the maximum of every
// 16-slot block and the overall maximum.  Adds raise them in passing;
// a Sub that decrements a block's maximum only marks the block stale,
// and stale blocks are rescanned (and the overall maximum refolded from
// the block maxima) on the next read.  Max and Fits — "does this
// register file still fit" — are therefore O(1) in the scheduler's
// steady state, and the maximum over any slot range costs two
// partial-block scans plus one read per whole block in between:
// O(16 + II/16).  Shadow builds its speculative check on that range
// maximum.
type Table struct {
	ii    int
	limit int   // register capacity Fits checks against
	slots []int // per-modulo-slot pressure, ii entries
	bmax  []int // bmax[b] >= max of slots in block b, exact unless b is stale
	max   int   // max of bmax: the peak pressure once nothing is stale
	stale []int // blocks whose bmax awaits a rescan, each listed once
	buf   []int // one backing array for slots, bmax and stale
}

// Pressure maxima are kept per block of blockSize modulo slots.
const (
	blockShift = 4
	blockSize  = 1 << blockShift
)

// NewTable returns a table of ii slots checking against the given
// register capacity.
func NewTable(ii, capacity int) *Table {
	t := &Table{}
	t.Init(ii, capacity)
	return t
}

// Init (re)initialises a table in place — the value-type counterpart of
// NewTable, so callers can embed Tables in slices without per-element
// pointer allocations.
//
//vliw:allocfree
func (t *Table) Init(ii, capacity int) {
	t.limit = capacity
	t.Reset(ii)
}

// Reset clears the table and resizes it to ii slots, reusing the backing
// array when capacity allows (no allocation in the steady state of an
// II search, which grows ii one step at a time).
//
//vliw:allocfree
func (t *Table) Reset(ii int) {
	if ii < 1 {
		panic("regpress: II must be >= 1")
	}
	t.ii = ii
	nb := (ii + blockSize - 1) >> blockShift
	if n := ii + 2*nb; cap(t.buf) < n {
		t.buf = make([]int, n, n+n/2+4) //vliw:alloc-ok amortized: cap-checked growth, reused across resets
	} else {
		t.buf = t.buf[:n]
		clear(t.buf)
	}
	t.slots = t.buf[:ii:ii]
	t.bmax = t.buf[ii : ii+nb : ii+nb]
	t.stale = t.buf[ii+nb : ii+nb] // at most nb entries: never outgrows buf
	t.max = 0
}

// II returns the current number of modulo slots.
//
//vliw:allocfree
func (t *Table) II() int { return t.ii }

// Capacity returns the register capacity Fits checks against.
//
//vliw:allocfree
func (t *Table) Capacity() int { return t.limit }

// Add adds one live-range instance over the flat-cycle interval
// [lo, hi): every cycle in the interval contributes 1 to its modulo
// slot.  Negative cycles are allowed (wraparound).  Empty intervals are
// no-ops.  The block maxima rise in passing.
//
//vliw:allocfree
func (t *Table) Add(lo, hi int) {
	if hi <= lo {
		return
	}
	full, s, n := split(lo, hi, t.ii)
	if full > 0 {
		t.addAll(full)
	}
	for ; n > 0; n-- {
		p := t.slots[s] + 1
		t.slots[s] = p
		if blk := s >> blockShift; p > t.bmax[blk] {
			t.bmax[blk] = p
			t.max = max(t.max, p)
		}
		s++
		if s == t.ii {
			s = 0
		}
	}
}

// Sub removes a live-range instance previously added over [lo, hi).
// Removing more than was added panics (pressure table underflow).  A
// block whose maximum was decremented is only marked stale: the rescan
// waits for the next read (refresh).
//
//vliw:allocfree
func (t *Table) Sub(lo, hi int) {
	if hi <= lo {
		return
	}
	full, s, n := split(lo, hi, t.ii)
	if full > 0 {
		t.addAll(-full)
	}
	for ; n > 0; n-- {
		p := t.slots[s]
		if p == 0 {
			panic("regpress: pressure table underflow (unbalanced Sub)")
		}
		t.slots[s] = p - 1
		if blk := s >> blockShift; p == t.bmax[blk] {
			t.markStale(blk)
		}
		s++
		if s == t.ii {
			s = 0
		}
	}
}

// markStale lists block blk for a rescan unless it already is.
//
//vliw:allocfree
func (t *Table) markStale(blk int) {
	for _, b := range t.stale {
		if b == blk {
			return
		}
	}
	t.stale = append(t.stale, blk)
}

// split decomposes the non-empty flat interval [lo, hi) into full wraps
// of the II — each adds 1 to every slot — plus a remainder of n < II
// consecutive slots starting at slot a (wrapping past II-1 to 0).
//
//vliw:allocfree
func split(lo, hi, ii int) (full, a, n int) {
	n = hi - lo
	if n >= ii {
		full = n / ii
		n -= full * ii
	}
	switch a = lo; {
	case a >= ii && a < 2*ii:
		a -= ii
	case a < 0 || a >= ii:
		a = mod(lo, ii) // a division: kept off the common case
	}
	return full, a, n
}

// addAll adds d to every slot.
//
//vliw:allocfree
func (t *Table) addAll(d int) {
	for s, p := range t.slots {
		p += d
		if p < 0 {
			panic("regpress: pressure table underflow (unbalanced Sub)")
		}
		t.slots[s] = p
	}
	for b := range t.bmax {
		t.bmax[b] += d
	}
	t.max += d
}

// refresh rescans the stale blocks and refolds the overall maximum, so
// bmax and max are exact.  O(1) when no Sub lowered a block maximum
// since the last read.
//
//vliw:allocfree
func (t *Table) refresh() {
	if len(t.stale) == 0 {
		return
	}
	for _, blk := range t.stale {
		lo := blk << blockShift
		t.bmax[blk] = maxOf(t.slots[lo:min(lo+blockSize, t.ii)])
	}
	t.stale = t.stale[:0]
	t.max = maxOf(t.bmax)
}

// rangeMax returns the peak pressure over the slots [a, b), 0 <= a < b
// <= II: the partial blocks at either end are scanned, the whole blocks
// in between read from bmax.  The table must be fresh (refresh).
//
//vliw:allocfree
func (t *Table) rangeMax(a, b int) int {
	first := (a + blockSize - 1) >> blockShift // first whole block
	last := b >> blockShift                    // one past the last whole block
	if first >= last {
		return maxOf(t.slots[a:b])
	}
	return max(maxOf(t.bmax[first:last]),
		maxOf(t.slots[a:first<<blockShift]), maxOf(t.slots[last<<blockShift:b]))
}

//vliw:allocfree
func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// Fits reports whether every slot is within capacity, i.e. Max() <=
// Capacity().  O(1) unless a Sub lowered the peak since the last read
// and the stale bound alone no longer proves the fit.
//
//vliw:allocfree
func (t *Table) Fits() bool {
	if t.max <= t.limit {
		return true // max is an upper bound even while stale
	}
	t.refresh()
	return t.max <= t.limit
}

// Max returns the current MaxLive: the peak pressure over all slots.
// O(1) unless a Sub since the last read lowered a block maximum.
//
//vliw:allocfree
func (t *Table) Max() int {
	t.refresh()
	return t.max
}

// Slot returns the pressure at modulo slot s.
//
//vliw:allocfree
func (t *Table) Slot(s int) int { return t.slots[s] }

// Slots returns the live per-slot pressure array.  It aliases the
// table's internal state and must not be mutated; it is exposed for
// invariant checks and diagnostics.
func (t *Table) Slots() []int { return t.slots }
