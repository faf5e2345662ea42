package ddg

import (
	"math/rand"

	"repro/internal/machine"
)

// Random builds a small pseudo-random DDG from a fuzz-style triple; the
// scheduler fuzzer and the BSA-vs-exact differential test share it so
// both walk the same graph family.  nNodes == 0 selects one of the
// known-good sample graphs (scaled by seed), so the corpus stays
// anchored on the shapes the paper discusses; otherwise a random DAG of
// nNodes operations is grown with forward true dependences from value
// producers, a sprinkle of memory-ordering edges, and up to two
// loop-carried recurrences.  Returns nil when the generated graph fails
// Validate.
//
// Random and Synth stay two generators on purpose.  Random maps fuzz
// byte-triples onto graphs: the committed FuzzSchedule corpus and the
// pinned seeds of the differential, pressure and parallel-II race tests
// are (seed, nNodes, nExtra) triples whose meaning is exactly this
// function's draw sequence and its sample-graph table.  Re-expressing it
// as a SynthSpec would silently turn every pinned entry into a different
// graph.  Synth is spec-driven: real-valued knobs at any size, for the
// load harness.  TestGeneratorGolden pins both.
func Random(seed uint64, nNodes, nExtra uint8) *Graph {
	if nNodes == 0 {
		switch seed % 5 {
		case 0:
			return SampleDotProduct()
		case 1:
			return SampleFigure7()
		case 2:
			return SampleStencil()
		case 3:
			return SampleChain(3 + int(seed/5)%8)
		default:
			return SampleIndependent(2 + int(seed/5)%10)
		}
	}
	n := int(nNodes)
	if n > 16 {
		n = 2 + n%15
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	classes := []machine.OpClass{
		machine.OpIAdd, machine.OpIMul, machine.OpLoad, machine.OpStore,
		machine.OpFAdd, machine.OpFMul, machine.OpFDiv,
	}
	g := New("fuzz")
	for i := 0; i < n; i++ {
		g.AddNode("n", classes[rng.Intn(len(classes))])
	}
	// Forward edges keep the zero-distance subgraph acyclic; true deps
	// must leave a value-producing node.
	for i := 1; i < n; i++ {
		from := rng.Intn(i)
		if g.Node(from).Class.ProducesValue() {
			g.AddTrueDep(from, i, 0)
		} else {
			g.AddMemDep(from, i, 0)
		}
	}
	// The full byte is honored: this used to read int(nExtra)%8, which
	// silently capped the extra-edge knob at 7 no matter what the caller
	// asked for (TestRandomExtraEdgesHonored pins the fix).  The uint8
	// signature stays byte-shaped so existing fuzz-corpus entries decode
	// to the same (seed, nNodes, nExtra) triples.
	for e := 0; e < int(nExtra); e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		switch {
		case a < b && g.Node(a).Class.ProducesValue():
			g.AddTrueDep(a, b, rng.Intn(2))
		case a < b:
			g.AddMemDep(a, b, rng.Intn(2))
		case g.Node(a).Class.ProducesValue():
			// Backward or self edge: loop-carried only.
			g.AddTrueDep(a, b, 1+rng.Intn(2))
		}
	}
	if g.Validate() != nil {
		return nil
	}
	return g
}
