package sched

import "repro/internal/machine"

// scalarMRT is the per-slot reference implementation of the modulo
// reservation table: plain counters and booleans, one entry per kernel
// slot, scanned cycle by cycle.  It is the implementation the packed
// bitset mrt replaced and is retained, test-only, as the oracle for
// the differential tests (mrt_differential_test.go): both tables are
// driven with the same reserve/release sequence and must agree on every free-slot
// query, including the BusLatency == II wrap boundary.
type scalarMRT struct {
	ii  int
	cfg *machine.Config
	// fu[cluster][class][slot] = number of operations issued.
	fu [][machine.NumFUClasses][]int
	// bus[b][slot] = true when bus b is driving a value.
	bus [][]bool
}

func newScalarMRT(cfg *machine.Config) *scalarMRT {
	m := &scalarMRT{cfg: cfg}
	m.fu = make([][machine.NumFUClasses][]int, cfg.NClusters)
	if cfg.NBuses > 0 {
		m.bus = make([][]bool, cfg.NBuses)
	}
	return m
}

func (m *scalarMRT) reset(ii int) {
	m.ii = ii
	for c := range m.fu {
		for class := range m.fu[c] {
			m.fu[c][class] = make([]int, ii)
		}
	}
	for b := range m.bus {
		m.bus[b] = make([]bool, ii)
	}
}

func (m *scalarMRT) slot(cycle int) int {
	s := cycle % m.ii
	if s < 0 {
		s += m.ii
	}
	return s
}

func (m *scalarMRT) fuFree(c int, class machine.FUClass, cycle int) bool {
	return m.fu[c][class][m.slot(cycle)] < m.cfg.FUs(c, class)
}

func (m *scalarMRT) reserveFU(c int, class machine.FUClass, cycle int) {
	s := m.slot(cycle)
	if m.fu[c][class][s] >= m.cfg.FUs(c, class) {
		panic("sched: FU overbooked (scalar)")
	}
	m.fu[c][class][s]++
}

func (m *scalarMRT) releaseFU(c int, class machine.FUClass, cycle int) {
	s := m.slot(cycle)
	if m.fu[c][class][s] == 0 {
		panic("sched: FU release underflow (scalar)")
	}
	m.fu[c][class][s]--
}

func (m *scalarMRT) busFree(b, start int) bool {
	if m.cfg.BusLatency > m.ii {
		return false
	}
	for k := 0; k < m.cfg.BusLatency; k++ {
		if m.bus[b][m.slot(start+k)] {
			return false
		}
	}
	return true
}

func (m *scalarMRT) reserveBus(b, start int) {
	for k := 0; k < m.cfg.BusLatency; k++ {
		s := m.slot(start + k)
		if m.bus[b][s] {
			panic("sched: bus overbooked (scalar)")
		}
		m.bus[b][s] = true
	}
}

func (m *scalarMRT) releaseBus(b, start int) {
	for k := 0; k < m.cfg.BusLatency; k++ {
		s := m.slot(start + k)
		if !m.bus[b][s] {
			panic("sched: bus release underflow (scalar)")
		}
		m.bus[b][s] = false
	}
}
