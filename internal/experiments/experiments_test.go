package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/exact"
	"repro/internal/machine"
)

// trimmedSuite keeps the tests fast: two contrasting benchmarks
// (recurrence-heavy tomcatv, parallel swim) with three loops each.
func trimmedSuite(t *testing.T) *Suite {
	t.Helper()
	picked := corpus.Trimmed([]string{"tomcatv", "swim"}, 3)
	if len(picked) != 2 {
		t.Fatal("trimmed suite missing benchmarks")
	}
	return NewSuiteWith(picked)
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", cell, err)
	}
	return f
}

func TestFig4Shape(t *testing.T) {
	s := trimmedSuite(t)
	tab, err := s.Fig4(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 series", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(Fig4Buses)+1 {
			t.Fatalf("row %v has %d cells", row, len(row))
		}
		first := cellFloat(t, row[1])
		last := cellFloat(t, row[len(row)-1])
		if first <= 0 || first > 1.25 || last <= 0 || last > 1.25 {
			t.Errorf("series %s: relative IPC out of range: %v", row[0], row)
		}
		// Relative IPC with many buses must not be materially below the
		// single-bus point: bandwidth only helps.
		if last < first-0.02 {
			t.Errorf("series %s: more buses hurt: B=1 %.3f vs B=max %.3f", row[0], first, last)
		}
	}
}

func TestFig4BSABeatsNEUnderPressure(t *testing.T) {
	s := trimmedSuite(t)
	tab, err := s.Fig4(4)
	if err != nil {
		t.Fatal(err)
	}
	// Row order: BSA L=1, BSA L=2, N&E L=1, N&E L=2; column 1 is B=1.
	bsaL2 := cellFloat(t, tab.Rows[1][1])
	neL2 := cellFloat(t, tab.Rows[3][1])
	if bsaL2+1e-9 < neL2 {
		t.Errorf("B=1/L=2: BSA %.3f below N&E %.3f (paper: single-pass wins under bus pressure)",
			bsaL2, neL2)
	}
}

func TestFig8Shape(t *testing.T) {
	s := trimmedSuite(t)
	for _, strat := range []core.Strategy{core.NoUnroll, core.UnrollAll, core.SelectiveUnroll} {
		tab, err := s.Fig8(2, strat)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 3 { // two benchmarks + AVERAGE
			t.Fatalf("rows = %d, want 3", len(tab.Rows))
		}
		if tab.Rows[2][0] != "AVERAGE" {
			t.Errorf("last row = %q, want AVERAGE", tab.Rows[2][0])
		}
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				if v := cellFloat(t, cell); v <= 0 || v > 12 {
					t.Errorf("%s: IPC %v out of range", row[0], v)
				}
			}
		}
	}
}

func TestFig8UnrollingRecoversIPC(t *testing.T) {
	// The paper's central Figure 8 claim: on the worst bus configuration
	// (1 bus, latency 4), unrolling recovers most of the clustered
	// machine's lost IPC.
	s := trimmedSuite(t)
	noUnroll, err := s.Fig8(2, core.NoUnroll)
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := s.Fig8(2, core.UnrollAll)
	if err != nil {
		t.Fatal(err)
	}
	// Column 3 is B1/L4; last row is AVERAGE.
	avgNo := cellFloat(t, noUnroll.Rows[2][3])
	avgUn := cellFloat(t, unrolled.Rows[2][3])
	if avgUn < avgNo {
		t.Errorf("unrolling lowered B1/L4 average IPC: %.3f vs %.3f", avgUn, avgNo)
	}
}

func TestFig9Shape(t *testing.T) {
	s := trimmedSuite(t)
	tab, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 bars", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		mean := cellFloat(t, row[1])
		if mean <= 1 {
			t.Errorf("%s: speedup %.3f <= 1 (clustering must win once cycle time counts)",
				row[0], mean)
		}
	}
	// The paper's best bar: 4-cluster SU B=1 beats 2-cluster everything.
	best := cellFloat(t, tab.Rows[6][1]) // 4-cluster SU B=1
	for i := 0; i < 4; i++ {
		if two := cellFloat(t, tab.Rows[i][1]); two > best {
			t.Errorf("2-cluster bar %s (%.3f) beats 4-cluster SU B=1 (%.3f)",
				tab.Rows[i][0], two, best)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	s := trimmedSuite(t)
	tab, err := s.Fig10(2)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0] != "unified no-unroll" {
		t.Fatalf("first row = %q", tab.Rows[0][0])
	}
	if v := cellFloat(t, tab.Rows[0][1]); v != 1.0 {
		t.Errorf("baseline normalised size = %v, want 1.0", v)
	}
	var noUnroll, unrollAll, selective float64
	for _, row := range tab.Rows {
		useful := cellFloat(t, row[2])
		switch row[0] {
		case "no-unroll B1/L1":
			noUnroll = useful
		case "unroll B1/L1":
			unrollAll = useful
		case "selective B1/L1":
			selective = useful
		}
		if useful <= 0 {
			t.Errorf("%s: useful size %v", row[0], useful)
		}
	}
	if unrollAll < noUnroll {
		t.Errorf("unroll-all code (%.3f) smaller than no-unroll (%.3f)", unrollAll, noUnroll)
	}
	if selective > unrollAll+1e-9 {
		t.Errorf("selective code (%.3f) larger than unroll-all (%.3f)", selective, unrollAll)
	}
}

func TestTable1Static(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 configurations", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[6] != "12" {
			t.Errorf("%s: total issue %s, want 12", row[0], row[6])
		}
	}
	if !strings.Contains(tab.Note, "fdiv") {
		t.Error("latency table missing from note")
	}
}

func TestCorpusTable(t *testing.T) {
	tab := Corpus(corpus.SPECfp95())
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d, want one per benchmark", len(tab.Rows))
	}
	// Pinned rows: benchmark, loops, avg ops, recurrences,
	// loop-carried deps, avg iters.
	want := map[string]string{
		"tomcatv": "tomcatv 8 34 5 14 155",
		"fpppp":   "fpppp 5 52 0 0 52",
		"wave5":   "wave5 8 17 3 12 149",
	}
	for _, row := range tab.Rows {
		if w, ok := want[row[0]]; ok && strings.Join(row, " ") != w {
			t.Errorf("row %q, want %q", strings.Join(row, " "), w)
		}
	}
	for _, row := range Corpus(trimmedSuite(t).Benchmarks).Rows {
		if row[1] != "3" {
			t.Errorf("%s: %s loops in the trimmed suite, want 3", row[0], row[1])
		}
	}
}

func TestTable2Static(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	uni := cellFloat(t, tab.Rows[0][4])
	fourB1 := cellFloat(t, tab.Rows[3][4])
	if ratio := uni / fourB1; ratio < 3.2 || ratio > 4.2 {
		t.Errorf("unified/4-cluster cycle ratio %.2f outside the calibrated window", ratio)
	}
}

func TestAblations(t *testing.T) {
	s := trimmedSuite(t)
	pol, err := s.AblationPolicy()
	if err != nil {
		t.Fatal(err)
	}
	profit := cellFloat(t, pol.Rows[0][1])
	for _, row := range pol.Rows[1:] {
		if v := cellFloat(t, row[1]); v > profit+0.03 {
			t.Errorf("policy %s (%.3f) clearly beats profit (%.3f)", row[0], v, profit)
		}
	}
	ord, err := s.AblationOrdering()
	if err != nil {
		t.Fatal(err)
	}
	if len(ord.Rows) != 2 {
		t.Fatalf("ordering rows = %d", len(ord.Rows))
	}
	uf, err := s.AblationUnrollFactor()
	if err != nil {
		t.Fatal(err)
	}
	x1 := cellFloat(t, uf.Rows[0][1])
	x4 := cellFloat(t, uf.Rows[2][1])
	if x4 < x1 {
		t.Errorf("unroll x4 (%.3f) below x1 (%.3f) on the bus-starved machine", x4, x1)
	}
}

func TestCompileCacheHits(t *testing.T) {
	s := trimmedSuite(t)
	cfg := machine.TwoCluster(1, 1)
	l := s.Benchmarks[0].Loops[0]
	a, err := s.compile(l, &cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.compile(l, &cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss for identical compilation")
	}
}

func TestClusterConfigRejectsUnknown(t *testing.T) {
	if _, err := clusterConfig(3, 1, 1); err == nil {
		t.Error("3-cluster accepted")
	}
}

func TestSuitePipelineStats(t *testing.T) {
	s := trimmedSuite(t)
	if _, err := s.Fig4(2); err != nil {
		t.Fatal(err)
	}
	st := s.Pipe.Stats()
	if st.Compilations == 0 {
		t.Fatal("pipeline saw no compilations")
	}
	if st.Compilations != st.Misses {
		t.Errorf("compilations %d != misses %d", st.Compilations, st.Misses)
	}
	// The serial row walk revisits everything prime compiled, so the
	// cache must be doing real work.
	if st.Hits == 0 {
		t.Error("figure build produced no cache hits")
	}
	// A second identical figure is answered entirely from cache.
	before := st.Compilations
	if _, err := s.Fig4(2); err != nil {
		t.Fatal(err)
	}
	if after := s.Pipe.Stats().Compilations; after != before {
		t.Errorf("rebuilding Fig4 recompiled (%d -> %d compilations)", before, after)
	}
}

// TestOptGapTableShape runs the optimality-gap driver on the trimmed
// suite with a tight oracle budget and checks the structural
// invariants every row must satisfy: compared+unsettled <= loops, BSA's
// mean II never below the exact mean, the geometric-mean ratio >= 1 on
// compared loops, and a closing ALL row per config.
func TestOptGapTableShape(t *testing.T) {
	s := trimmedSuite(t)
	tbl, err := s.OptGapTable(exact.Budget{MaxNodes: 16, MaxSteps: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	nConfigs := len(machine.Table1Configs())
	wantRows := nConfigs * (len(s.Benchmarks) + 1) // + ALL per config
	if len(tbl.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), wantRows)
	}
	allRows := 0
	for _, row := range tbl.Rows {
		loops := int(cellFloat(t, row[2]))
		cmp := int(cellFloat(t, row[3]))
		opt := int(cellFloat(t, row[4]))
		gaps := int(cellFloat(t, row[5]))
		na := int(cellFloat(t, row[6]))
		if cmp+na > loops {
			t.Errorf("row %v: cmp %d + n/a %d exceeds loops %d", row, cmp, na, loops)
		}
		if opt+gaps != cmp {
			t.Errorf("row %v: opt %d + gaps %d != cmp %d", row, opt, gaps, cmp)
		}
		if cmp > 0 {
			bsaII, exactII := cellFloat(t, row[7]), cellFloat(t, row[8])
			if bsaII < exactII-1e-9 {
				t.Errorf("row %v: mean BSA II %v below exact %v", row, bsaII, exactII)
			}
			if ratio := cellFloat(t, row[9]); ratio < 1-1e-9 {
				t.Errorf("row %v: gm ratio %v < 1", row, ratio)
			}
			if ipc := cellFloat(t, row[10]); ipc > 1+1e-9 {
				t.Errorf("row %v: BSA IPC gap %v above 1 (beats the optimum?)", row, ipc)
			}
		}
		if row[1] == "ALL" {
			allRows++
		}
	}
	if allRows != nConfigs {
		t.Errorf("ALL rows = %d, want one per config (%d)", allRows, nConfigs)
	}
}
