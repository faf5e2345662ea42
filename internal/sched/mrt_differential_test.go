package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// mrtRes is one live reservation of the differential driver.
type mrtRes struct {
	bus      bool
	c        int
	class    machine.FUClass
	b, cycle int
}

// TestMRTDifferential drives the packed-bitset reservation table and
// the per-slot scalar oracle with the same pseudo-random
// reserve/release sequence and asserts they agree on every free-slot
// query after every step.  The II sweep crosses the one-word/two-word
// boundary (64) and the BusLatency == II wrap boundary, the two places
// the bit arithmetic can go wrong silently, and reaches the multi-word
// IIs failed unrolled searches run at (up to 1671 on the paper grid),
// where busScan assembles its free-start bitmap a word at a time and
// queries span several words and wrap past II-1.
func TestMRTDifferential(t *testing.T) {
	type combo struct {
		name string
		cfg  machine.Config
		iis  []int
	}
	combos := []combo{
		{"four_1bus_lat1", machine.FourCluster(1, 1), []int{1, 2, 3, 5, 8}},
		{"four_2bus_lat3", machine.FourCluster(2, 3), []int{3, 4, 7}},
		{"two_2bus_lat3", machine.TwoCluster(2, 3), []int{3, 6}},
		{"two_1bus_latEqII", machine.TwoCluster(1, 5), []int{5}},
		{"four_2bus_wide", machine.FourCluster(2, 5), []int{63, 64, 65, 70}},
		{"four_2bus_lat1_words", machine.FourCluster(2, 1), []int{127, 128, 129, 200, 1671}},
		{"four_2bus_lat2_words", machine.FourCluster(2, 2), []int{127, 128, 129, 200, 1671}},
	}
	for _, cb := range combos {
		for _, ii := range cb.iis {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%s/ii%d/seed%d", cb.name, ii, seed), func(t *testing.T) {
					runMRTDifferential(t, &cb.cfg, ii, seed)
				})
			}
		}
	}
}

func runMRTDifferential(t *testing.T, cfg *machine.Config, ii int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := newMRT(cfg)
	m.reset(ii)
	oracle := newScalarMRT(cfg)
	oracle.reset(ii)

	dist := make([]int, ii)
	var live []mrtRes
	if ii > 64 {
		// Multi-word tables: start each bus with a busy stretch of several
		// words (wrapping past II-1 when it starts late) over a dense
		// sprinkle, so first feasible starts lie words away from the
		// query slot; the releases below reopen it piece by piece.
		lat := cfg.BusLatency
		for b := 0; b < cfg.NBuses; b++ {
			first := rng.Intn(ii)
			for k := 0; k+lat <= 3*64+rng.Intn(64) && k+lat < ii; k += lat {
				m.reserveBus(b, first+k)
				oracle.reserveBus(b, first+k)
				live = append(live, mrtRes{bus: true, b: b, cycle: first + k})
			}
			for try := 0; try < ii; try++ {
				if cycle := rng.Intn(ii); oracle.busFree(b, cycle) {
					m.reserveBus(b, cycle)
					oracle.reserveBus(b, cycle)
					live = append(live, mrtRes{bus: true, b: b, cycle: cycle})
				}
			}
		}
	}
	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			// Release a random live reservation.
			i := rng.Intn(len(live))
			r := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if r.bus {
				m.releaseBus(r.b, r.cycle)
				oracle.releaseBus(r.b, r.cycle)
			} else {
				m.releaseFU(r.c, r.class, r.cycle)
				oracle.releaseFU(r.c, r.class, r.cycle)
			}
		} else if cfg.NBuses > 0 && rng.Intn(2) == 0 {
			b := rng.Intn(cfg.NBuses)
			cycle := rng.Intn(3*ii) - ii // exercise negative cycles too
			got, want := m.busFree(b, cycle), oracle.busFree(b, cycle)
			if got != want {
				t.Fatalf("step %d: busFree(%d, %d) = %v, oracle %v", step, b, cycle, got, want)
			}
			if got {
				m.reserveBus(b, cycle)
				oracle.reserveBus(b, cycle)
				live = append(live, mrtRes{bus: true, b: b, cycle: cycle})
			}
		} else {
			c := rng.Intn(cfg.NClusters)
			class := machine.FUClass(rng.Intn(int(machine.NumFUClasses)))
			cycle := rng.Intn(3*ii) - ii
			got, want := m.fuFree(c, class, cycle), oracle.fuFree(c, class, cycle)
			if got != want {
				t.Fatalf("step %d: fuFree(%d, %v, %d) = %v, oracle %v", step, c, class, cycle, got, want)
			}
			if got {
				m.reserveFU(c, class, cycle)
				oracle.reserveFU(c, class, cycle)
				live = append(live, mrtRes{c: c, class: class, cycle: cycle})
			}
		}

		// Full-table agreement after every mutation, plus the bus scan
		// from every slot against the oracle's distance to the next free
		// start (dist[s], -1 when the bus has none).
		for b := 0; b < cfg.NBuses; b++ {
			for s := 0; s < ii; s++ {
				free := oracle.busFree(b, s)
				if got := m.busFreeSlot(b, s); got != free {
					t.Fatalf("step %d: busFreeSlot(%d, %d) = %v, oracle %v", step, b, s, got, free)
				}
				dist[s] = -1
				if free {
					dist[s] = 0
				}
			}
			for k := 0; k < 2; k++ { // two sweeps carry distances across the wrap
				for s := ii - 1; s >= 0; s-- {
					if next := dist[(s+1)%ii]; dist[s] != 0 && next >= 0 && (dist[s] < 0 || next+1 < dist[s]) {
						dist[s] = next + 1
					}
				}
			}
			for s := 0; s < ii; s++ {
				n := 1 + rng.Intn(ii)
				want := dist[s]
				if want >= n {
					want = -1
				}
				if got := m.busScan(b, s, n); got != want {
					t.Fatalf("step %d: busScan(%d, %d, %d) = %d, oracle %d", step, b, s, n, got, want)
				}
			}
		}
	}
}

// TestBusScanWrapAtLatencyEqualsII pins busScan on the full-wrap
// boundary: with BusLatency == II every start occupies the whole
// kernel, so exactly one transfer fits and the scan must report the
// first start while the bus is empty and none afterwards.
func TestBusScanWrapAtLatencyEqualsII(t *testing.T) {
	cfg := machine.TwoCluster(1, 4)
	m := newMRT(&cfg)
	m.reset(4)
	for s := 0; s < 4; s++ {
		if got := m.busScan(0, s, 4); got != 0 {
			t.Fatalf("empty bus: busScan(0, %d, 4) = %d, want 0", s, got)
		}
	}
	m.reserveBus(0, 2)
	for s := 0; s < 4; s++ {
		if got := m.busScan(0, s, 4); got != -1 {
			t.Fatalf("full bus: busScan(0, %d, 4) = %d, want -1", s, got)
		}
	}
	m.releaseBus(0, 2)
	if got := m.busScan(0, 3, 4); got != 0 {
		t.Fatalf("released bus: busScan(0, 3, 4) = %d, want 0", got)
	}
}

// TestBusScanPartialWrap pins the wrap search path: the only feasible
// start lies before the query slot, so the scan has to wrap past II-1
// and count the offset correctly.
func TestBusScanPartialWrap(t *testing.T) {
	cfg := machine.TwoCluster(1, 2)
	m := newMRT(&cfg)
	m.reset(6)
	// Busy slots 2..5 -> the only latency-2 window is [0,1].
	m.reserveBusSlot(0, 2) // occupies 2 and 3
	m.reserveBusSlot(0, 4) // occupies 4 and 5
	if got := m.busScan(0, 3, 6); got != 3 {
		t.Fatalf("busScan(0, 3, 6) = %d, want 3 (wrap to slot 0)", got)
	}
	if got := m.busScan(0, 3, 3); got != -1 {
		t.Fatalf("busScan(0, 3, 3) = %d, want -1 (window excludes the wrap)", got)
	}
}
