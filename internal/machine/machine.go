// Package machine describes the clustered VLIW target of Sánchez &
// González (ICPP 2000): a set of homogeneous clusters, each with its own
// integer, floating-point and memory functional units plus a local
// register file, connected by one or more shared buses.
//
// A Config is a pure value object; the scheduler, emitter, simulator and
// timing model all consume it.  The three configurations evaluated in the
// paper (unified, 2-cluster, 4-cluster — all 12-issue) are provided as
// constructors, but arbitrary homogeneous configurations can be built
// directly.
package machine

import (
	"fmt"
	"strings"
)

// FUClass identifies one of the three functional-unit types of the
// architecture.  Every cluster owns FUs of every class.
type FUClass int

// The functional-unit classes of the paper's machine model.
const (
	FUInteger FUClass = iota // integer ALUs
	FUFloat                  // floating-point units
	FUMemory                 // load/store units
	NumFUClasses
)

// String returns the conventional short name of the FU class.
func (c FUClass) String() string {
	switch c {
	case FUInteger:
		return "INT"
	case FUFloat:
		return "FP"
	case FUMemory:
		return "MEM"
	default:
		return fmt.Sprintf("FUClass(%d)", int(c))
	}
}

// Config describes one clustered VLIW machine.  The zero value is not
// usable; build one with a constructor or fill every field.
type Config struct {
	// Name labels the configuration in reports ("unified", "2-cluster"...).
	Name string

	// NClusters is the number of homogeneous clusters (1 = unified).
	NClusters int

	// FUsPerCluster holds the number of functional units of each class
	// inside one cluster, indexed by FUClass.
	FUsPerCluster [NumFUClasses]int

	// RegsPerCluster is the capacity of each local register file.  The
	// schedulers never generate spill code: a cluster whose MaxLive would
	// exceed this bound is not a valid placement.
	RegsPerCluster int

	// NBuses is the number of shared inter-cluster buses.  Irrelevant
	// (and conventionally zero) when NClusters == 1.
	NBuses int

	// BusLatency is the number of cycles a value needs to cross a bus.
	// The bus is busy for the entire latency (paper §3), so a transfer
	// occupies BusLatency consecutive modulo-reservation slots.
	BusLatency int

	// Hetero, when non-nil, makes the machine non-homogeneous (the
	// generalisation the paper's §3 mentions): Hetero[c][class] is
	// cluster c's unit count and overrides FUsPerCluster, which is then
	// ignored.  Its length must equal NClusters.  Register files stay
	// uniform.
	Hetero [][NumFUClasses]int
}

// FUs returns the number of functional units of the class in the given
// cluster — the single capacity accessor every consumer (reservation
// table, validator, emitter, simulator) uses, so heterogeneous
// configurations work throughout.
func (c Config) FUs(cluster int, class FUClass) int {
	if c.Hetero != nil {
		return c.Hetero[cluster][class]
	}
	return c.FUsPerCluster[class]
}

// ClusterIssueWidth returns the operation slots per cycle of one
// cluster.
func (c Config) ClusterIssueWidth(cluster int) int {
	w := 0
	for class := FUClass(0); class < NumFUClasses; class++ {
		w += c.FUs(cluster, class)
	}
	return w
}

// Validate reports an error describing the first ill-formed field, or nil.
func (c Config) Validate() error {
	switch {
	case c.NClusters < 1:
		return fmt.Errorf("machine: config %q: NClusters = %d, want >= 1", c.Name, c.NClusters)
	case c.RegsPerCluster < 1:
		return fmt.Errorf("machine: config %q: RegsPerCluster = %d, want >= 1", c.Name, c.RegsPerCluster)
	case c.NClusters > 1 && c.NBuses < 1:
		return fmt.Errorf("machine: config %q: clustered machine needs >= 1 bus, got %d", c.Name, c.NBuses)
	case c.NClusters > 1 && c.BusLatency < 1:
		return fmt.Errorf("machine: config %q: BusLatency = %d, want >= 1", c.Name, c.BusLatency)
	}
	if c.Hetero != nil && len(c.Hetero) != c.NClusters {
		return fmt.Errorf("machine: config %q: Hetero has %d entries for %d clusters",
			c.Name, len(c.Hetero), c.NClusters)
	}
	for cl := 0; cl < c.NClusters; cl++ {
		total := 0
		for class := FUClass(0); class < NumFUClasses; class++ {
			n := c.FUs(cl, class)
			if n < 0 {
				return fmt.Errorf("machine: config %q: cluster %d has negative %s count",
					c.Name, cl, class)
			}
			total += n
		}
		if total == 0 {
			return fmt.Errorf("machine: config %q: cluster %d has no functional units", c.Name, cl)
		}
	}
	return nil
}

// TotalFUs returns the machine-wide number of FUs of the given class.
func (c Config) TotalFUs(class FUClass) int {
	total := 0
	for cl := 0; cl < c.NClusters; cl++ {
		total += c.FUs(cl, class)
	}
	return total
}

// IssueWidth returns the number of operation slots per cluster per
// cycle (bus fields excluded); for heterogeneous machines it is the
// widest cluster (the one that bounds the cycle time).
func (c Config) IssueWidth() int {
	w := 0
	for cl := 0; cl < c.NClusters; cl++ {
		if cw := c.ClusterIssueWidth(cl); cw > w {
			w = cw
		}
	}
	return w
}

// TotalIssueWidth returns the machine-wide operation slots per cycle.
func (c Config) TotalIssueWidth() int {
	w := 0
	for cl := 0; cl < c.NClusters; cl++ {
		w += c.ClusterIssueWidth(cl)
	}
	return w
}

// SlotsPerInstruction returns the number of operation fields in one VLIW
// instruction word, including the IN-BUS and OUT-BUS fields of every
// cluster (Figure 3 of the paper shows one of each per cluster).  Used by
// the code-size study: fields not carrying a useful operation are NOPs.
func (c Config) SlotsPerInstruction() int {
	slots := 0
	for cl := 0; cl < c.NClusters; cl++ {
		slots += c.ClusterIssueWidth(cl)
		if c.NClusters > 1 {
			slots += 2 // IN BUS + OUT BUS fields
		}
	}
	return slots
}

// Clustered reports whether the machine has more than one cluster.
//
//vliw:allocfree
func (c Config) Clustered() bool { return c.NClusters > 1 }

// String returns a compact human-readable description.
func (c Config) String() string {
	if c.Hetero != nil {
		var parts []string
		for cl := 0; cl < c.NClusters; cl++ {
			parts = append(parts, fmt.Sprintf("(%d INT,%d FP,%d MEM)",
				c.FUs(cl, FUInteger), c.FUs(cl, FUFloat), c.FUs(cl, FUMemory)))
		}
		return fmt.Sprintf("%s: %s %d regs/cl, %d bus(es) lat %d",
			c.Name, strings.Join(parts, "+"), c.RegsPerCluster, c.NBuses, c.BusLatency)
	}
	if !c.Clustered() {
		return fmt.Sprintf("%s: 1x(%d INT,%d FP,%d MEM) %d regs",
			c.Name, c.FUsPerCluster[FUInteger], c.FUsPerCluster[FUFloat],
			c.FUsPerCluster[FUMemory], c.RegsPerCluster)
	}
	return fmt.Sprintf("%s: %dx(%d INT,%d FP,%d MEM) %d regs/cl, %d bus(es) lat %d",
		c.Name, c.NClusters, c.FUsPerCluster[FUInteger], c.FUsPerCluster[FUFloat],
		c.FUsPerCluster[FUMemory], c.RegsPerCluster, c.NBuses, c.BusLatency)
}

// Unified returns the paper's baseline: one cluster with four FUs of each
// class and a single 64-entry register file (Table 1).
func Unified() Config {
	return Config{
		Name:           "unified",
		NClusters:      1,
		FUsPerCluster:  [NumFUClasses]int{4, 4, 4},
		RegsPerCluster: 64,
	}
}

// TwoCluster returns the paper's 2-cluster configuration: two FUs of each
// class and 32 registers per cluster (Table 1), with the requested bus
// count and latency.
func TwoCluster(buses, busLat int) Config {
	return Config{
		Name:           fmt.Sprintf("2-cluster/B%d/L%d", buses, busLat),
		NClusters:      2,
		FUsPerCluster:  [NumFUClasses]int{2, 2, 2},
		RegsPerCluster: 32,
		NBuses:         buses,
		BusLatency:     busLat,
	}
}

// Table1Configs returns every machine configuration the paper's
// evaluation visits: the unified baseline plus the 2- and 4-cluster
// machines at one and two buses, bus latencies 1 and 2.  Sweeps (the
// differential tests, the optimality-gap table, the service's machine
// refs) iterate over it.
func Table1Configs() []Config {
	cfgs := []Config{Unified()}
	for _, buses := range []int{1, 2} {
		for _, lat := range []int{1, 2} {
			cfgs = append(cfgs, TwoCluster(buses, lat), FourCluster(buses, lat))
		}
	}
	return cfgs
}

// ConfigByName resolves one of the Table 1 configuration names
// ("unified", "2-cluster/B1/L2", "4-cluster/B2/L1", ...) to its Config;
// it returns false for unknown names.  These are the machine_ref names
// of the service wire format — the daemon indexes Table1Configs once
// at startup rather than calling this per request, and the wire tests
// pin the two resolution paths to each other.
func ConfigByName(name string) (Config, bool) {
	for _, c := range Table1Configs() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

// FourCluster returns the paper's 4-cluster configuration: one FU of each
// class and 16 registers per cluster (Table 1).
func FourCluster(buses, busLat int) Config {
	return Config{
		Name:           fmt.Sprintf("4-cluster/B%d/L%d", buses, busLat),
		NClusters:      4,
		FUsPerCluster:  [NumFUClasses]int{1, 1, 1},
		RegsPerCluster: 16,
		NBuses:         buses,
		BusLatency:     busLat,
	}
}
