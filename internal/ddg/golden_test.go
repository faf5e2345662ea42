package ddg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/loadgen"
)

// generatorGolden is the sha256 over every graph the three generators
// produce for the pinned inputs below.  A change to it means a
// generator now emits different graphs: the paper corpus, the loadgen
// corpora or the fuzz/race seed families shifted under every test and
// benchmark that replays them.
const generatorGolden = "78a6dd1fc32349c8712f01cca63b2607f7fe333c99dc9376596967afdd9b93a6"

// goldenSynthSpecs spans the ddg.Synth knobs directly, from the
// two-node minimum to a dense, recurrence-heavy body.
var goldenSynthSpecs = []ddg.SynthSpec{
	{Seed: 0, Nodes: 2},
	{Seed: 1, Nodes: 8},
	{Seed: 3, Nodes: 40},
	{Seed: 3, Nodes: 40, RecurrenceDensity: 0.8},
	{Seed: 7, Nodes: 64},
	{Seed: 99, Nodes: 48, RecurrenceDensity: 0.4, ExtraEdgeDensity: 1.5, ClusterAffinity: 0.7},
	{Name: "wide", Seed: 11, Nodes: 200, RecurrenceDensity: 0.1, ExtraEdgeDensity: 3, ClusterAffinity: 1, Communities: 8, MaxDistance: 4},
	{Name: "flat", Seed: 12, Nodes: 120, ExtraEdgeDensity: 0.5},
}

// goldenLoadgenSeeds are the master seeds of loadgen's default spec:
// seed 1 is the CLI default, seed 0 the benchmark workloads' spec.
var goldenLoadgenSeeds = []uint64{0, 1, 3, 5}

// goldenRandomTriples are the (seed, nNodes, nExtra) inputs the
// scheduler fuzz corpus, the pressure and differential tests, the
// parallel-II race tests and the benchmarks feed ddg.Random.
var goldenRandomTriples = [][3]uint64{
	{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {4, 0, 0},
	{5, 0, 1}, {6, 0, 2}, {12, 0, 3}, {13, 0, 0}, {14, 0, 1},
	{1, 6, 3}, {42, 10, 5}, {7, 14, 7}, {123, 9, 6},
	{5, 8, 2}, {6, 12, 6}, {9, 15, 7}, {11, 5, 1}, {13, 16, 4},
	{17, 7, 5}, {19, 11, 3}, {23, 13, 2}, {29, 10, 7}, {31, 6, 6},
	{777, 15, 7}, {1234, 11, 6}, {31415, 8, 7}, {99, 5, 2},
	{8, 16, 0}, {42, 14, 7}, {42, 14, 255}, {3, 200, 40},
}

// TestGeneratorGolden pins the output of corpus.SPECfp95, ddg.Synth
// (directly and through loadgen.Spec) and ddg.Random, so a refactor of
// any generator's helpers has to keep every graph bit-identical.
func TestGeneratorGolden(t *testing.T) {
	h := sha256.New()
	for _, b := range corpus.SPECfp95() {
		for _, l := range b.Loops {
			fmt.Fprintf(h, "corpus %s %s %d %d\n", l.Graph.Name, l.Graph.Fingerprint(), l.Iters, l.Weight)
		}
	}
	for i, spec := range goldenSynthSpecs {
		g, err := ddg.Synth(spec)
		if err != nil {
			t.Fatalf("synth spec %d: %v", i, err)
		}
		fmt.Fprintf(h, "synth %d %s\n", i, g.Fingerprint())
	}
	for _, seed := range goldenLoadgenSeeds {
		loops, err := loadgen.Spec{
			Count: 24, MinNodes: 8, MaxNodes: 48,
			RecurrenceDensity: 0.25, ExtraEdgeDensity: 0.5, ClusterAffinity: 0.6,
			Seed: seed,
		}.Generate()
		if err != nil {
			t.Fatalf("loadgen seed %d: %v", seed, err)
		}
		for _, l := range loops {
			fmt.Fprintf(h, "loadgen %d %s %s %d\n", seed, l.Graph.Name, l.Graph.Fingerprint(), l.Iters)
		}
	}
	for _, tr := range goldenRandomTriples {
		fp := "nil"
		if g := ddg.Random(tr[0], uint8(tr[1]), uint8(tr[2])); g != nil {
			fp = g.Fingerprint()
		}
		fmt.Fprintf(h, "random %v %s\n", tr, fp)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatorGolden {
		t.Fatalf("generator golden = %s, want %s", got, generatorGolden)
	}
}
