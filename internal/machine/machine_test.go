package machine

import (
	"strings"
	"testing"
)

func TestPaperConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{Unified(), TwoCluster(1, 1), FourCluster(2, 4)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: unexpected Validate error: %v", cfg.Name, err)
		}
	}
}

func TestPaperConfigsAreTwelveIssue(t *testing.T) {
	// Table 1: all three configurations are 12-way issue in total.
	for _, cfg := range []Config{Unified(), TwoCluster(1, 1), FourCluster(1, 1)} {
		if got := cfg.TotalIssueWidth(); got != 12 {
			t.Errorf("%s: total issue width = %d, want 12", cfg.Name, got)
		}
	}
}

func TestTotalRegistersMatchTable1(t *testing.T) {
	cases := []struct {
		cfg  Config
		regs int
	}{
		{Unified(), 64},
		{TwoCluster(1, 1), 32},
		{FourCluster(1, 1), 16},
	}
	for _, c := range cases {
		if c.cfg.RegsPerCluster != c.regs {
			t.Errorf("%s: regs/cluster = %d, want %d", c.cfg.Name, c.cfg.RegsPerCluster, c.regs)
		}
		// Total register budget is 64 in every configuration.
		if got := c.cfg.RegsPerCluster * c.cfg.NClusters; got != 64 {
			t.Errorf("%s: total regs = %d, want 64", c.cfg.Name, got)
		}
	}
}

func TestTotalFUs(t *testing.T) {
	cfg := FourCluster(1, 1)
	for class := FUClass(0); class < NumFUClasses; class++ {
		if got := cfg.TotalFUs(class); got != 4 {
			t.Errorf("4-cluster total %s FUs = %d, want 4", class, got)
		}
	}
	u := Unified()
	if got := u.TotalFUs(FUFloat); got != 4 {
		t.Errorf("unified total FP FUs = %d, want 4", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Name: "no-clusters", NClusters: 0, RegsPerCluster: 8, FUsPerCluster: [NumFUClasses]int{1, 1, 1}},
		{Name: "no-regs", NClusters: 1, RegsPerCluster: 0, FUsPerCluster: [NumFUClasses]int{1, 1, 1}},
		{Name: "no-bus", NClusters: 2, RegsPerCluster: 8, FUsPerCluster: [NumFUClasses]int{1, 1, 1}},
		{Name: "no-buslat", NClusters: 2, NBuses: 1, RegsPerCluster: 8, FUsPerCluster: [NumFUClasses]int{1, 1, 1}},
		{Name: "no-fus", NClusters: 1, RegsPerCluster: 8},
		{Name: "neg-fus", NClusters: 1, RegsPerCluster: 8, FUsPerCluster: [NumFUClasses]int{-1, 2, 2}},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", cfg.Name)
		}
	}
}

func TestSlotsPerInstruction(t *testing.T) {
	// Unified: 12 FU fields, no bus fields.
	if got := Unified().SlotsPerInstruction(); got != 12 {
		t.Errorf("unified slots = %d, want 12", got)
	}
	// 2-cluster: (6 FUs + IN + OUT) * 2 = 16.
	if got := TwoCluster(1, 1).SlotsPerInstruction(); got != 16 {
		t.Errorf("2-cluster slots = %d, want 16", got)
	}
	// 4-cluster: (3 FUs + IN + OUT) * 4 = 20.
	if got := FourCluster(1, 1).SlotsPerInstruction(); got != 20 {
		t.Errorf("4-cluster slots = %d, want 20", got)
	}
}

func TestOpClassProperties(t *testing.T) {
	cases := []struct {
		op    OpClass
		fu    FUClass
		lat   int
		value bool
	}{
		{OpIAdd, FUInteger, 1, true},
		{OpIMul, FUInteger, 2, true},
		{OpLoad, FUMemory, 2, true},
		{OpStore, FUMemory, 1, false},
		{OpFAdd, FUFloat, 3, true},
		{OpFMul, FUFloat, 4, true},
		{OpFDiv, FUFloat, 17, true},
	}
	for _, c := range cases {
		if c.op.FU() != c.fu {
			t.Errorf("%s: FU = %s, want %s", c.op, c.op.FU(), c.fu)
		}
		if c.op.Latency() != c.lat {
			t.Errorf("%s: latency = %d, want %d", c.op, c.op.Latency(), c.lat)
		}
		if c.op.ProducesValue() != c.value {
			t.Errorf("%s: ProducesValue = %v, want %v", c.op, c.op.ProducesValue(), c.value)
		}
	}
}

func TestOpClassByName(t *testing.T) {
	for c := OpClass(0); c < NumOpClasses; c++ {
		got, ok := OpClassByName(c.String())
		if !ok || got != c {
			t.Errorf("OpClassByName(%q) = %v,%v; want %v,true", c.String(), got, ok, c)
		}
	}
	if _, ok := OpClassByName("bogus"); ok {
		t.Error("OpClassByName accepted an unknown mnemonic")
	}
}

func TestStringDescriptions(t *testing.T) {
	u := Unified()
	if s := u.String(); !strings.Contains(s, "unified") || !strings.Contains(s, "64") {
		t.Errorf("unified description missing fields: %q", s)
	}
	c := FourCluster(2, 4)
	s := c.String()
	for _, want := range []string{"4x", "16 regs", "2 bus", "lat 4"} {
		if !strings.Contains(s, want) {
			t.Errorf("4-cluster description %q missing %q", s, want)
		}
	}
	if FUInteger.String() != "INT" || FUFloat.String() != "FP" || FUMemory.String() != "MEM" {
		t.Error("FUClass names changed")
	}
}

func TestInvalidOpClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("OpClass(99).FU() did not panic")
		}
	}()
	_ = OpClass(99).FU()
}

func TestHeteroString(t *testing.T) {
	cfg := Config{
		Name: "h", NClusters: 2, RegsPerCluster: 16, NBuses: 1, BusLatency: 1,
		Hetero: [][NumFUClasses]int{{2, 1, 2}, {0, 3, 1}},
	}
	s := cfg.String()
	for _, want := range []string{"(2 INT,1 FP,2 MEM)", "(0 INT,3 FP,1 MEM)", "16 regs"} {
		if !strings.Contains(s, want) {
			t.Errorf("hetero description %q missing %q", s, want)
		}
	}
}

func TestTable1Configs(t *testing.T) {
	cfgs := Table1Configs()
	if len(cfgs) != 9 {
		t.Fatalf("Table1Configs has %d entries, want 9 (unified + 2/4 clusters x B1/B2 x L1/L2)", len(cfgs))
	}
	seen := map[string]bool{}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		if cfg.TotalIssueWidth() != 12 {
			t.Errorf("%s: issue width %d, want 12", cfg.Name, cfg.TotalIssueWidth())
		}
		if seen[cfg.Name] {
			t.Errorf("duplicate config %s", cfg.Name)
		}
		seen[cfg.Name] = true
	}
}
