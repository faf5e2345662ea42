package sched

import (
	"math/bits"

	"repro/internal/machine"
)

// mrt is the modulo reservation table: per-cluster functional-unit
// occupancy plus per-bus busy bitmaps, all indexed by kernel slot
// (cycle mod II).  Buses are resources exactly like FUs (paper §3),
// except a transfer holds its bus for BusLatency consecutive slots.
//
// Occupancy is tracked in packed uint64 bitset rows, one word per 64
// kernel slots: a "free functional unit?" probe is a single AND+mask, a
// bus window test is at most two masked range scans (the reservation may
// wrap past slot II-1 back to 0), a first-free-start search builds its
// bitmap a word at a time (busScan), and reserve/release are OR/ANDN.
// Units of a class can number more than one per cluster, so the FU rows
// pair the bitset (bit set = slot full) with a per-slot counter that
// decides when the bit flips; buses have capacity one and need only the
// bitset.  scalarMRT (mrt_scalar_test.go) is the per-slot reference
// implementation the differential tests compare against.
//
// The table is reusable across the II search: reset resizes the rows in
// place (capacity kept, with headroom for the II growing one step at a
// time), so restarting an attempt allocates nothing in the steady
// state.
type mrt struct {
	ii    int
	cfg   *machine.Config
	words int // uint64 words per bitset row: ceil(ii / 64)

	// fuCnt[(c*NumFUClasses+class)*ii + s] = operations issued in slot s.
	fuCnt []int32
	// fuFull bit s of row c*NumFUClasses+class is set when the slot has
	// no free unit left (count == capacity).
	fuFull []uint64
	// fuCap[c*NumFUClasses+class] = the cluster's unit count of the
	// class, flattened from cfg once so the hot path never consults the
	// (possibly heterogeneous) config.
	fuCap []int32

	// busBusy bit s of row b is set while bus b drives a value.
	busBusy []uint64
}

func newMRT(cfg *machine.Config) *mrt {
	m := &mrt{}
	m.rebind(cfg)
	return m
}

// rebind points the table at a (possibly different) machine, rebuilding
// the flattened capacity row.  The pooled scheduler state calls it when
// a recycled state is reused for another config.
func (m *mrt) rebind(cfg *machine.Config) {
	m.cfg = cfg
	rows := cfg.NClusters * int(machine.NumFUClasses)
	if cap(m.fuCap) < rows {
		m.fuCap = make([]int32, rows)
	}
	m.fuCap = m.fuCap[:rows]
	for c := 0; c < cfg.NClusters; c++ {
		for class := machine.FUClass(0); class < machine.NumFUClasses; class++ {
			m.fuCap[c*int(machine.NumFUClasses)+int(class)] = int32(cfg.FUs(c, class))
		}
	}
}

// reset clears the table and resizes every row to ii slots.
//
//vliw:allocfree
func (m *mrt) reset(ii int) {
	m.ii = ii
	m.words = (ii + 63) >> 6
	rows := len(m.fuCap)

	need := rows * ii
	if cap(m.fuCnt) < need {
		m.fuCnt = make([]int32, need, need+need/2+8) //vliw:alloc-ok amortized: cap-checked growth, reused across resets
	}
	m.fuCnt = m.fuCnt[:need]
	for i := range m.fuCnt {
		m.fuCnt[i] = 0
	}

	need = rows * m.words
	if cap(m.fuFull) < need {
		m.fuFull = make([]uint64, need, need+need/2+8) //vliw:alloc-ok amortized: cap-checked growth, reused across resets
	}
	m.fuFull = m.fuFull[:need]
	for i := range m.fuFull {
		m.fuFull[i] = 0
	}
	// A zero-capacity row (heterogeneous cluster without units of a
	// class) is full from the start.
	for r, cap := range m.fuCap {
		if cap == 0 {
			setRange(m.fuFull[r*m.words:(r+1)*m.words], 0, ii)
		}
	}

	need = m.cfg.NBuses * m.words
	if cap(m.busBusy) < need {
		m.busBusy = make([]uint64, need, need+need/2+8) //vliw:alloc-ok amortized: cap-checked growth, reused across resets
	}
	m.busBusy = m.busBusy[:need]
	for i := range m.busBusy {
		m.busBusy[i] = 0
	}
}

//vliw:allocfree
func (m *mrt) slot(cycle int) int {
	s := cycle % m.ii
	if s < 0 {
		s += m.ii
	}
	return s
}

// fuFreeSlot reports whether cluster c has a free unit of the class at
// the given kernel slot — one word load, AND, compare.
//
//vliw:allocfree
func (m *mrt) fuFreeSlot(c int, class machine.FUClass, s int) bool {
	r := c*int(machine.NumFUClasses) + int(class)
	return m.fuFull[r*m.words+s>>6]&(1<<uint(s&63)) == 0
}

// fuFree is fuFreeSlot for a flat cycle.
//
//vliw:allocfree
func (m *mrt) fuFree(c int, class machine.FUClass, cycle int) bool {
	return m.fuFreeSlot(c, class, m.slot(cycle))
}

//vliw:allocfree
func (m *mrt) reserveFUSlot(c int, class machine.FUClass, s int) {
	r := c*int(machine.NumFUClasses) + int(class)
	cnt := &m.fuCnt[r*m.ii+s]
	if *cnt >= m.fuCap[r] {
		panic("sched: FU overbooked")
	}
	*cnt++
	if *cnt == m.fuCap[r] {
		m.fuFull[r*m.words+s>>6] |= 1 << uint(s&63)
	}
}

//vliw:allocfree
func (m *mrt) reserveFU(c int, class machine.FUClass, cycle int) {
	m.reserveFUSlot(c, class, m.slot(cycle))
}

//vliw:allocfree
func (m *mrt) releaseFUSlot(c int, class machine.FUClass, s int) {
	r := c*int(machine.NumFUClasses) + int(class)
	cnt := &m.fuCnt[r*m.ii+s]
	if *cnt == 0 {
		panic("sched: FU release underflow")
	}
	if *cnt == m.fuCap[r] {
		m.fuFull[r*m.words+s>>6] &^= 1 << uint(s&63)
	}
	*cnt--
}

//vliw:allocfree
func (m *mrt) releaseFU(c int, class machine.FUClass, cycle int) {
	m.releaseFUSlot(c, class, m.slot(cycle))
}

// busFreeSlot reports whether bus b can carry a transfer starting at
// the given kernel slot: BusLatency consecutive modulo slots must be
// idle.  A latency exceeding the II can never fit — each kernel
// iteration issues its own instance and they would overlap on the wire.
// The window [s, s+BusLatency) may wrap past II-1; both pieces are
// masked word tests.
//
//vliw:allocfree
func (m *mrt) busFreeSlot(b, s int) bool {
	lat := m.cfg.BusLatency
	if lat > m.ii {
		return false
	}
	if m.words == 1 {
		return m.busBusy[b]&m.busWindow(s) == 0
	}
	row := m.busBusy[b*m.words : (b+1)*m.words]
	n1 := m.ii - s
	if n1 > lat {
		n1 = lat
	}
	if !rangeFree(row, s, n1) {
		return false
	}
	if lat > n1 {
		return rangeFree(row, 0, lat-n1)
	}
	return true
}

// busScan returns the smallest k in [0, n) such that a transfer can
// start at kernel slot (s+k) mod ii on bus b, or -1 when none fits.
// It never probes slot by slot: a "start here and the next
// BusLatency-1 slots are free too" bitmap is built by clearing the
// free-slot bits under each of the lat-1 shifted copies of the busy
// row, and TrailingZeros finds the first feasible start.  With the
// whole table in one word (II <= 64) the shifted copies are rotations
// of that word; above II 64 the bitmap is built one 64-slot word at a
// time from s onward (busWord), so a scan costs O(BusLatency · n/64).
//
//vliw:allocfree
func (m *mrt) busScan(b, s, n int) int {
	lat := m.cfg.BusLatency
	if lat > m.ii || n <= 0 {
		return -1
	}
	if n > m.ii {
		n = m.ii
	}
	if m.words > 1 {
		row := m.busBusy[b*m.words : (b+1)*m.words]
		for k := 0; k < n; k += 64 {
			p := s + k
			if p >= m.ii {
				p -= m.ii
			}
			ok := ^m.busWord(row, p)
			for j := 1; j < lat && ok != 0; j++ {
				q := p + j
				if q >= m.ii {
					q -= m.ii
				}
				ok &^= m.busWord(row, q)
			}
			if ok != 0 {
				if d := bits.TrailingZeros64(ok); k+d < n {
					return k + d
				}
				return -1
			}
		}
		return -1
	}
	mask := ^uint64(0) >> uint(64-m.ii)
	busy := m.busBusy[b] & mask
	ok := ^busy & mask
	for k := 1; k < lat; k++ {
		// Rotate the busy row right by k within the low ii bits: bit s of
		// the rotation is slot (s+k) mod ii, so clearing ok on set bits
		// requires slot s+k free for a start at s.
		rot := (busy>>uint(k) | busy<<uint(m.ii-k)) & mask
		ok &^= rot
	}
	// First set bit at offset >= 0 from s, wrapping once past ii-1.
	if x := ok >> uint(s); x != 0 {
		if k := bits.TrailingZeros64(x); k < n {
			return k
		}
		return -1
	}
	if x := ok & (uint64(1)<<uint(s) - 1); x != 0 {
		if k := m.ii - s + bits.TrailingZeros64(x); k < n {
			return k
		}
	}
	return -1
}

// busWord returns the 64 busy bits of a multi-word row starting at
// kernel slot p (0 <= p < ii), wrapping past slot ii-1: bit j is slot
// (p+j) mod ii.  With ii > 64 the window wraps at most once, and the
// row's bits at and above ii are always clear, so the wrapped part is
// OR-ed in from slot 0.
//
//vliw:allocfree
func (m *mrt) busWord(row []uint64, p int) uint64 {
	x := wordAt(row, p)
	if tail := m.ii - p; tail < 64 {
		x |= row[0] << uint(tail)
	}
	return x
}

// wordAt returns bits [p, p+64) of the row, zero past its last word.
//
//vliw:allocfree
func wordAt(row []uint64, p int) uint64 {
	w, o := p>>6, uint(p&63)
	x := row[w] >> o
	if o != 0 && w+1 < len(row) {
		x |= row[w+1] << (64 - o)
	}
	return x
}

// busBitFree reports whether the single kernel slot s on bus b is idle
// (tests and diagnostics; the scheduler always probes whole windows).
//
//vliw:allocfree
func (m *mrt) busBitFree(b, s int) bool {
	return m.busBusy[b*m.words+s>>6]&(1<<uint(s&63)) == 0
}

// busFree is busFreeSlot for a flat start cycle.
//
//vliw:allocfree
func (m *mrt) busFree(b, start int) bool {
	if m.cfg.BusLatency > m.ii {
		return false
	}
	return m.busFreeSlot(b, m.slot(start))
}

// busWindow returns the bit window [s, s+BusLatency) mod ii as a single
// word.  Only valid when the table fits one word and BusLatency <= II.
//
//vliw:allocfree
func (m *mrt) busWindow(s int) uint64 {
	lat := m.cfg.BusLatency
	n1 := m.ii - s
	if n1 > lat {
		n1 = lat
	}
	w := maskBits(s, s+n1)
	if lat > n1 {
		w |= maskBits(0, lat-n1)
	}
	return w
}

//vliw:allocfree
func (m *mrt) reserveBusSlot(b, s int) {
	lat := m.cfg.BusLatency
	if m.words == 1 && lat <= m.ii {
		w := m.busWindow(s)
		if m.busBusy[b]&w != 0 {
			panic("sched: bus overbooked")
		}
		m.busBusy[b] |= w
		return
	}
	row := m.busBusy[b*m.words : (b+1)*m.words]
	n1 := m.ii - s
	if n1 > lat {
		n1 = lat
	}
	if !rangeFree(row, s, n1) || (lat > n1 && !rangeFree(row, 0, lat-n1)) {
		panic("sched: bus overbooked")
	}
	setRange(row, s, n1)
	if lat > n1 {
		setRange(row, 0, lat-n1)
	}
}

//vliw:allocfree
func (m *mrt) reserveBus(b, start int) {
	m.reserveBusSlot(b, m.slot(start))
}

//vliw:allocfree
func (m *mrt) releaseBusSlot(b, s int) {
	lat := m.cfg.BusLatency
	if m.words == 1 && lat <= m.ii {
		w := m.busWindow(s)
		if m.busBusy[b]&w != w {
			panic("sched: bus release underflow")
		}
		m.busBusy[b] &^= w
		return
	}
	row := m.busBusy[b*m.words : (b+1)*m.words]
	n1 := m.ii - s
	if n1 > lat {
		n1 = lat
	}
	if !rangeSet(row, s, n1) || (lat > n1 && !rangeSet(row, 0, lat-n1)) {
		panic("sched: bus release underflow")
	}
	clearRange(row, s, n1)
	if lat > n1 {
		clearRange(row, 0, lat-n1)
	}
}

//vliw:allocfree
func (m *mrt) releaseBus(b, start int) {
	m.releaseBusSlot(b, m.slot(start))
}

// maskBits returns the word mask with bits [lo, hi) set; 0 <= lo < hi <= 64.
//
//vliw:allocfree
func maskBits(lo, hi int) uint64 {
	return ^uint64(0) >> uint(64-(hi-lo)) << uint(lo)
}

// rangeFree reports whether bits [lo, lo+n) of the row are all zero.
//
//vliw:allocfree
func rangeFree(w []uint64, lo, n int) bool {
	if n <= 0 {
		return true
	}
	hi := lo + n
	iw, lw := lo>>6, (hi-1)>>6
	if iw == lw {
		return w[iw]&maskBits(lo&63, (hi-1)&63+1) == 0
	}
	if w[iw]&maskBits(lo&63, 64) != 0 {
		return false
	}
	for k := iw + 1; k < lw; k++ {
		if w[k] != 0 {
			return false
		}
	}
	return w[lw]&maskBits(0, (hi-1)&63+1) == 0
}

// rangeSet reports whether bits [lo, lo+n) of the row are all one.
//
//vliw:allocfree
func rangeSet(w []uint64, lo, n int) bool {
	if n <= 0 {
		return true
	}
	hi := lo + n
	iw, lw := lo>>6, (hi-1)>>6
	if iw == lw {
		m := maskBits(lo&63, (hi-1)&63+1)
		return w[iw]&m == m
	}
	if m := maskBits(lo&63, 64); w[iw]&m != m {
		return false
	}
	for k := iw + 1; k < lw; k++ {
		if w[k] != ^uint64(0) {
			return false
		}
	}
	m := maskBits(0, (hi-1)&63+1)
	return w[lw]&m == m
}

// setRange sets bits [lo, lo+n) of the row.
//
//vliw:allocfree
func setRange(w []uint64, lo, n int) {
	if n <= 0 {
		return
	}
	hi := lo + n
	iw, lw := lo>>6, (hi-1)>>6
	if iw == lw {
		w[iw] |= maskBits(lo&63, (hi-1)&63+1)
		return
	}
	w[iw] |= maskBits(lo&63, 64)
	for k := iw + 1; k < lw; k++ {
		w[k] = ^uint64(0)
	}
	w[lw] |= maskBits(0, (hi-1)&63+1)
}

// clearRange clears bits [lo, lo+n) of the row.
//
//vliw:allocfree
func clearRange(w []uint64, lo, n int) {
	if n <= 0 {
		return
	}
	hi := lo + n
	iw, lw := lo>>6, (hi-1)>>6
	if iw == lw {
		w[iw] &^= maskBits(lo&63, (hi-1)&63+1)
		return
	}
	w[iw] &^= maskBits(lo&63, 64)
	for k := iw + 1; k < lw; k++ {
		w[k] = 0
	}
	w[lw] &^= maskBits(0, (hi-1)&63+1)
}
