package sched

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/regpress"
)

// validateOracle is the map-based validator Validate replaced, kept as
// the differential reference: the same checks in the same order with
// the same messages, over maps instead of flat tables.
func validateOracle(s *Schedule) error {
	g, cfg := s.Graph, s.Cfg
	if len(s.Placements) != g.NumNodes() {
		return fmt.Errorf("validate: %d placements for %d nodes", len(s.Placements), g.NumNodes())
	}
	if s.II < 1 {
		return fmt.Errorf("validate: II = %d", s.II)
	}

	type fuKey struct {
		cluster int
		class   machine.FUClass
		slot    int
	}
	fuSeen := map[fuKey]map[int]bool{}
	for id, p := range s.Placements {
		if p.Node != id {
			return fmt.Errorf("validate: placement %d labelled node %d", id, p.Node)
		}
		if p.Cluster < 0 || p.Cluster >= cfg.NClusters {
			return fmt.Errorf("validate: node %d on cluster %d of %d", id, p.Cluster, cfg.NClusters)
		}
		if p.Cycle < 0 {
			return fmt.Errorf("validate: node %d at negative cycle %d", id, p.Cycle)
		}
		class := g.Node(id).Class.FU()
		if p.FU < 0 || p.FU >= cfg.FUs(p.Cluster, class) {
			return fmt.Errorf("validate: node %d on %s unit %d of %d",
				id, class, p.FU, cfg.FUs(p.Cluster, class))
		}
		k := fuKey{p.Cluster, class, p.Cycle % s.II}
		if fuSeen[k] == nil {
			fuSeen[k] = map[int]bool{}
		}
		if fuSeen[k][p.FU] {
			return fmt.Errorf("validate: cluster %d %s unit %d slot %d double-booked",
				p.Cluster, class, p.FU, k.slot)
		}
		fuSeen[k][p.FU] = true
	}

	busBusy := map[[2]int]int{}
	for i, t := range s.Transfers {
		if t.Bus < 0 || t.Bus >= cfg.NBuses {
			return fmt.Errorf("validate: transfer %d on bus %d of %d", i, t.Bus, cfg.NBuses)
		}
		if cfg.BusLatency > s.II {
			return fmt.Errorf("validate: bus latency %d exceeds II %d", cfg.BusLatency, s.II)
		}
		for k := 0; k < cfg.BusLatency; k++ {
			slot := [2]int{t.Bus, mod(t.Start+k, s.II)}
			if prev, clash := busBusy[slot]; clash {
				return fmt.Errorf("validate: bus %d slot %d carries transfers %d and %d",
					t.Bus, slot[1], prev, i)
			}
			busBusy[slot] = i
		}
	}

	for _, e := range g.Edges() {
		tf, tt := s.Placements[e.From].Cycle, s.Placements[e.To].Cycle
		if tt+s.II*e.Distance < tf+e.Latency {
			return fmt.Errorf("validate: edge %s->%s (lat %d, dist %d) violated: %d vs %d",
				g.Node(e.From).Name, g.Node(e.To).Name, e.Latency, e.Distance,
				tt+s.II*e.Distance, tf+e.Latency)
		}
		if e.Kind != ddg.DepTrue {
			continue
		}
		cf, ct := s.Placements[e.From].Cluster, s.Placements[e.To].Cluster
		if cf == ct {
			continue
		}
		if !servedByTransfer(s, e, tf, tt, ct) {
			return fmt.Errorf("validate: cross-cluster dependence %s(c%d)->%s(c%d) has no timely transfer",
				g.Node(e.From).Name, cf, g.Node(e.To).Name, ct)
		}
	}

	for i, t := range s.Transfers {
		if t.Producer < 0 || t.Producer >= g.NumNodes() {
			return fmt.Errorf("validate: transfer %d has bad producer %d", i, t.Producer)
		}
		p := s.Placements[t.Producer]
		if p.Cluster != t.From {
			return fmt.Errorf("validate: transfer %d leaves cluster %d but producer %s is on %d",
				i, t.From, g.Node(t.Producer).Name, p.Cluster)
		}
		if t.Start < p.Cycle+g.Node(t.Producer).Class.Latency() {
			return fmt.Errorf("validate: transfer %d starts at %d before producer %s finishes at %d",
				i, t.Start, g.Node(t.Producer).Name, p.Cycle+g.Node(t.Producer).Class.Latency())
		}
		if t.To < 0 || t.To >= cfg.NClusters {
			return fmt.Errorf("validate: transfer %d goes to cluster %d of %d", i, t.To, cfg.NClusters)
		}
	}

	for c, lts := range lifetimesOracle(s) {
		if live := regpress.MaxLive(lts, s.II); live > cfg.RegsPerCluster {
			return fmt.Errorf("validate: cluster %d needs %d registers, has %d",
				c, live, cfg.RegsPerCluster)
		}
	}
	return nil
}

// lifetimesOracle is Schedule.Lifetimes with the producer grouping it
// replaced: a map from producer to its transfers.
func lifetimesOracle(s *Schedule) [][]regpress.Lifetime {
	out := make([][]regpress.Lifetime, s.Cfg.NClusters)
	byProd := make(map[int][]Transfer)
	for _, t := range s.Transfers {
		byProd[t.Producer] = append(byProd[t.Producer], t)
	}
	for _, n := range s.Graph.Nodes() {
		if !n.Class.ProducesValue() {
			continue
		}
		p := s.Placements[n.ID]
		end := p.Cycle + 1
		for _, e := range s.Graph.OutEdges(n.ID) {
			if e.Kind != ddg.DepTrue {
				continue
			}
			m := s.Placements[e.To]
			if m.Cluster != p.Cluster {
				continue
			}
			if r := m.Cycle + s.II*e.Distance + 1; r > end {
				end = r
			}
		}
		for _, t := range byProd[n.ID] {
			if r := t.Start + 1; r > end {
				end = r
			}
		}
		out[p.Cluster] = append(out[p.Cluster], regpress.Lifetime{Start: p.Cycle, End: end})
		for _, t := range byProd[n.ID] {
			arrival := t.Start + s.Cfg.BusLatency
			last := arrival
			for _, e := range s.Graph.OutEdges(n.ID) {
				if e.Kind != ddg.DepTrue {
					continue
				}
				m := s.Placements[e.To]
				if m.Cluster != t.To {
					continue
				}
				read := m.Cycle + s.II*e.Distance
				if read >= arrival && read+1 > last {
					last = read + 1
				}
			}
			if last > arrival+1 {
				out[t.To] = append(out[t.To], regpress.Lifetime{Start: arrival, End: last})
			}
		}
	}
	return out
}

// copySchedule returns s with its own placement and transfer slices.
func copySchedule(s *Schedule) *Schedule {
	c := *s
	c.Placements = append([]Placement(nil), s.Placements...)
	c.Transfers = append([]Transfer(nil), s.Transfers...)
	return &c
}

// checkAgainstOracle fails t unless Validate and validateOracle agree
// on s — both nil or the same text — and, when every placement names a
// cluster of the machine (the precondition of Lifetimes), unless
// Lifetimes matches the oracle's lifetimes in content and order.  It
// returns Validate's verdict.
func checkAgainstOracle(t *testing.T, s *Schedule) error {
	t.Helper()
	got, want := Validate(s), validateOracle(s)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		// Raw fields: String needs the II >= 1 that a mutation may break.
		t.Fatalf("Validate = %v, oracle = %v\nII %d on %s\nplacements %+v\ntransfers %+v",
			got, want, s.II, s.Cfg.Name, s.Placements, s.Transfers)
	}
	if len(s.Placements) != s.Graph.NumNodes() {
		return got
	}
	for _, p := range s.Placements {
		if p.Cluster < 0 || p.Cluster >= s.Cfg.NClusters {
			return got
		}
	}
	if lt, olt := s.Lifetimes(), lifetimesOracle(s); !reflect.DeepEqual(lt, olt) {
		t.Fatalf("Lifetimes = %v, oracle = %v", lt, olt)
	}
	return got
}

// TestValidateRejectsMissingDestination: a transfer bound for a cluster
// the machine does not have, on an otherwise free bus slot, used to
// pass validation.
func TestValidateRejectsMissingDestination(t *testing.T) {
	cfg := machine.FourCluster(2, 1)
	s := mustSchedule(t, ddg.SampleStencil().Unroll(2), cfg, nil)
	if len(s.Transfers) == 0 {
		t.Fatal("test wants a schedule with transfers")
	}
	busy := map[[2]int]bool{}
	for _, tr := range s.Transfers {
		busy[[2]int{tr.Bus, mod(tr.Start, s.II)}] = true
	}
	extra := s.Transfers[0]
	extra.To = 7
	placed := false
	for k := 0; k < s.II && !placed; k++ {
		for b := 0; b < cfg.NBuses && !placed; b++ {
			if !busy[[2]int{b, mod(extra.Start+k, s.II)}] {
				extra.Start += k
				extra.Bus = b
				placed = true
			}
		}
	}
	if !placed {
		t.Fatal("no free bus slot for the extra transfer")
	}
	c := copySchedule(s)
	c.Transfers = append(c.Transfers, extra)
	want := fmt.Sprintf("validate: transfer %d goes to cluster 7 of 4", len(c.Transfers)-1)
	if err := checkAgainstOracle(t, c); err == nil || err.Error() != want {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
	c.Transfers[len(c.Transfers)-1].To = -1
	if err := checkAgainstOracle(t, c); err == nil {
		t.Fatal("Validate accepted a transfer to cluster -1")
	}
}

// TestValidateWideFUs runs the FU capacity check past one bitmask word:
// units 64 and up of a class, on a machine that has them.
func TestValidateWideFUs(t *testing.T) {
	s := mustSchedule(t, ddg.SampleStencil(), machine.TwoCluster(1, 1), nil)
	c := copySchedule(s)
	c.Cfg = widen(s.Cfg)
	if err := checkAgainstOracle(t, c); err != nil {
		t.Fatalf("widened schedule rejected: %v", err)
	}
	// Two nodes of one class on the same slot, on the same unit and on
	// units one word apart, past 64 units.
	first := map[machine.FUClass]int{}
	for b := range c.Placements {
		class := c.Graph.Node(b).Class.FU()
		a, ok := first[class]
		if !ok {
			first[class] = b
			continue
		}
		for _, fu := range []int{63, 64, 69, 127, 128} {
			if fu >= c.Cfg.FUs(c.Placements[a].Cluster, class) {
				continue
			}
			d := copySchedule(c)
			d.Placements[b].Cluster = d.Placements[a].Cluster
			d.Placements[b].Cycle = d.Placements[a].Cycle
			d.Placements[a].FU, d.Placements[b].FU = fu, fu
			if err := checkAgainstOracle(t, d); err == nil || !strings.Contains(err.Error(), "double-booked") {
				t.Errorf("%s unit %d double booking: Validate = %v", class, fu, err)
			}
			for _, other := range []int{fu - 1, fu - 64} {
				if other >= 0 {
					d.Placements[b].FU = other
					checkAgainstOracle(t, d)
				}
			}
		}
	}
	if len(first) < 2 {
		t.Fatal("test wants nodes of several FU classes")
	}
}

// TestLifetimesMatchOracle checks Lifetimes against the map-grouped
// oracle, order included, when one value crosses the bus several times
// to the same cluster: every transfer of every fuzz seed schedule gets
// two copies that leave earlier, so both hold the value in a register
// until its read.
func TestLifetimesMatchOracle(t *testing.T) {
	for pick := range fuzzScheduleSeeds {
		s := validateFuzzBase(pick)
		if s == nil {
			continue
		}
		for i := range s.Transfers {
			for k := 2; k <= 4; k++ {
				c := copySchedule(s)
				for _, early := range []int{k, k + 1} {
					dup := c.Transfers[i]
					dup.Start -= early
					c.Transfers = append(c.Transfers, dup)
				}
				checkAgainstOracle(t, c)
			}
		}
	}
}

// widen returns cfg with more than one bitmask word of units in some
// classes; a schedule valid on cfg stays valid on it.
func widen(cfg machine.Config) machine.Config {
	cfg.Name += "/wide"
	cfg.FUsPerCluster = [machine.NumFUClasses]int{70, 130, 65}
	return cfg
}

// validateFuzzBases caches the schedules FuzzValidate mutates, one per
// fuzzScheduleSeeds entry (nil when the seed graph does not schedule).
var validateFuzzBases = struct {
	sync.Mutex
	m map[int]*Schedule
}{m: map[int]*Schedule{}}

func validateFuzzBase(pick int) *Schedule {
	validateFuzzBases.Lock()
	defer validateFuzzBases.Unlock()
	if s, ok := validateFuzzBases.m[pick]; ok {
		return s
	}
	sd := fuzzScheduleSeeds[pick]
	var s *Schedule
	if g := fuzzGraph(sd.seed, sd.nNodes, sd.nExtra); g != nil {
		cfg := fuzzConfigs[int(sd.cfgPick)%len(fuzzConfigs)]
		s, _ = ScheduleGraph(g, &cfg, nil)
	}
	validateFuzzBases.m[pick] = s
	return s
}

// FuzzValidate is the differential check of Validate's flat tables
// against validateOracle's maps.  It mutates a valid schedule of a
// fuzzScheduleSeeds graph — placement cycle, cluster and unit; transfer
// bus, start, producer and destination; duplicated transfers; the II —
// optionally on a widened machine, and requires both validators to
// return the same error text or both nil.  Each mutation is three
// bytes of ops: what to change, which entry, and the new value or
// offset; values range one past each valid range on both sides.  Only
// the first maxValidateMutations are applied.
func FuzzValidate(f *testing.F) {
	for pick := range fuzzScheduleSeeds {
		f.Add(uint8(pick), false, []byte{})
		f.Add(uint8(pick), true, []byte{0, 1, 3, 2, 0, 0})
	}
	f.Add(uint8(1), false, []byte{7, 0, 7})             // extra transfer to cluster 7
	f.Add(uint8(2), false, []byte{3, 0, 1, 4, 0, 1})    // bus and start
	f.Add(uint8(3), true, []byte{2, 0, 200, 2, 1, 200}) // high units
	f.Add(uint8(5), false, []byte{1, 2, 0, 5, 0, 255})  // cluster, producer
	f.Add(uint8(6), false, []byte{8, 0, 253, 6, 0, 9})  // II shrink, destination
	f.Add(uint8(7), false, []byte{0, 3, 250, 8, 0, 2})  // cycle earlier, II grow
	f.Fuzz(func(t *testing.T, pick uint8, wide bool, ops []byte) {
		base := validateFuzzBase(int(pick) % len(fuzzScheduleSeeds))
		if base == nil {
			t.Skip("seed graph not schedulable")
		}
		s := copySchedule(base)
		if wide {
			s.Cfg = widen(s.Cfg)
		}
		if err := checkAgainstOracle(t, s); err != nil {
			t.Fatalf("unmutated schedule rejected: %v", err)
		}
		for n := 0; n < maxValidateMutations && len(ops) >= 3; n++ {
			mutateForValidate(s, ops[0], int(ops[1]), ops[2])
			ops = ops[3:]
		}
		checkAgainstOracle(t, s)
	})
}

// maxValidateMutations bounds the mutations of one FuzzValidate input:
// a few stacked corruptions reach every check, and short inputs keep
// the fuzzer's minimisation of new inputs fast.
const maxValidateMutations = 8

// mutateForValidate applies one FuzzValidate mutation to s in place.
func mutateForValidate(s *Schedule, what byte, which int, v byte) {
	delta := int(int8(v))
	// around maps v into [-1, n]: every valid index plus one invalid
	// neighbour on each side.
	around := func(n int) int { return int(v)%(n+2) - 1 }
	nc := s.Cfg.NClusters
	switch what % 9 {
	case 0:
		s.Placements[which%len(s.Placements)].Cycle += delta
	case 1:
		s.Placements[which%len(s.Placements)].Cluster = around(nc)
	case 2:
		id := which % len(s.Placements)
		p := &s.Placements[id]
		fus := 0
		if p.Cluster >= 0 && p.Cluster < nc {
			fus = s.Cfg.FUs(p.Cluster, s.Graph.Node(id).Class.FU())
		}
		p.FU = around(fus)
	case 3:
		if len(s.Transfers) > 0 {
			s.Transfers[which%len(s.Transfers)].Bus = around(s.Cfg.NBuses)
		}
	case 4:
		if len(s.Transfers) > 0 {
			s.Transfers[which%len(s.Transfers)].Start += delta
		}
	case 5:
		if len(s.Transfers) > 0 {
			s.Transfers[which%len(s.Transfers)].Producer = around(s.Graph.NumNodes())
		}
	case 6:
		if len(s.Transfers) > 0 {
			s.Transfers[which%len(s.Transfers)].To = around(nc)
		}
	case 7:
		if len(s.Transfers) > 0 {
			dup := s.Transfers[which%len(s.Transfers)]
			dup.To = int(v) % (nc + 4)
			s.Transfers = append(s.Transfers, dup)
		}
	case 8:
		// Capped so the fuzzer cannot grow the II without bound.
		s.II = min(s.II+delta, 1024)
	}
}
