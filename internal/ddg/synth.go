// Synth is the production-shaped graph generator behind the load
// harness (internal/loadgen): unlike Random, whose byte-shaped
// arguments exist to map fuzzer inputs onto small graphs, Synth takes
// an explicit spec with real-valued density knobs and honors every one
// of them without truncation, so a corpus family can be scaled from
// toy bodies to thousand-node loops with controlled structure.  The
// two generators stay separate because their inputs mean different
// things (see Random); they share only Apportion.

package ddg

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
)

// SynthSpec parameterizes one synthesized dependence graph.  All knobs
// are deterministic functions of Seed: the same spec always yields the
// same graph, byte-identical through the JSON codec, which is what lets
// a generated corpus be reproduced from its spec alone.
type SynthSpec struct {
	// Name labels the graph ("" means "synth").
	Name string
	// Seed drives every random choice.
	Seed uint64
	// Nodes is the exact operation count (>= 2, unbounded above — the
	// wire caps, not the generator, bound what a daemon will accept).
	Nodes int
	// RecurrenceDensity is the target fraction of nodes participating
	// in loop-carried recurrence cycles, in [0, 1].  0 yields a
	// recurrence-free body (unrolling-friendly, swim-like); values near
	// 1 yield tomcatv-like chains that bound the II from below.
	RecurrenceDensity float64
	// ExtraEdgeDensity is the number of extra dependences added per
	// node beyond the spanning forward edges and recurrence cycles
	// (>= 0, not capped).  Every unit adds exactly one edge, so edge
	// count grows linearly with the knob.
	ExtraEdgeDensity float64
	// ClusterAffinity in [0, 1] biases edge endpoints toward the same
	// affinity community: 1 yields near-partitionable graphs (cheap to
	// distribute across clusters), 0 yields uniform cross-community
	// traffic that pressures the buses.
	ClusterAffinity float64
	// Communities is the number of affinity communities (0 means 4).
	Communities int
	// MaxDistance bounds loop-carried dependence distances (0 means 2).
	MaxDistance int
}

// withDefaults resolves the zero values.
func (s SynthSpec) withDefaults() SynthSpec {
	if s.Name == "" {
		s.Name = "synth"
	}
	if s.Communities <= 0 {
		s.Communities = 4
	}
	if s.MaxDistance <= 0 {
		s.MaxDistance = 2
	}
	return s
}

// Validate rejects out-of-range knobs.
func (s SynthSpec) Validate() error {
	switch {
	case s.Nodes < 2:
		return fmt.Errorf("ddg: synth spec needs at least 2 nodes, got %d", s.Nodes)
	case s.RecurrenceDensity < 0 || s.RecurrenceDensity > 1:
		return fmt.Errorf("ddg: recurrence density %v outside [0, 1]", s.RecurrenceDensity)
	case s.ExtraEdgeDensity < 0:
		return fmt.Errorf("ddg: extra edge density %v negative", s.ExtraEdgeDensity)
	case s.ClusterAffinity < 0 || s.ClusterAffinity > 1:
		return fmt.Errorf("ddg: cluster affinity %v outside [0, 1]", s.ClusterAffinity)
	case s.Communities < 0:
		return fmt.Errorf("ddg: community count %v negative", s.Communities)
	case s.MaxDistance < 0:
		return fmt.Errorf("ddg: max distance %v negative", s.MaxDistance)
	}
	return nil
}

// synthMix is the operation-class mix of a synthesized body, a blend of
// the SPECfp95 profiles (corpus.Profiles): load-heavy, FAdd/FMul
// arithmetic, a trickle of divides and integer work.
var synthMix = [machine.NumOpClasses]float64{
	machine.OpLoad:  0.26,
	machine.OpStore: 0.10,
	machine.OpFAdd:  0.26,
	machine.OpFMul:  0.20,
	machine.OpFDiv:  0.02,
	machine.OpIAdd:  0.13,
	machine.OpIMul:  0.03,
}

// Synth builds one graph from its spec.  The construction guarantees
// validity (forward distance-0 edges only, true dependences only out of
// value producers), so unlike Random it never returns nil: a spec that
// validates always yields a schedulable-shaped graph.
func Synth(spec SynthSpec) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(int64(spec.Seed)))
	g := New(spec.Name)

	// Apportion the body across classes, then lay it out the way the
	// corpus generator does: loads (the natural sources) first,
	// recurrence chains, arithmetic, stores.
	counts := Apportion(synthMix, spec.Nodes, rng)
	// Recurrence nodes come out of the arithmetic budget; keep at least
	// one load so the body has a source to feed the chains.
	if counts[machine.OpLoad] == 0 {
		counts[machine.OpLoad] = 1
		for _, c := range []machine.OpClass{machine.OpFAdd, machine.OpFMul, machine.OpStore, machine.OpIAdd, machine.OpIMul, machine.OpFDiv} {
			if counts[c] > 0 {
				counts[c]--
				break
			}
		}
	}
	recBudget := 0
	want := int(spec.RecurrenceDensity*float64(spec.Nodes) + 0.5)
	for _, c := range []machine.OpClass{machine.OpFAdd, machine.OpFMul, machine.OpIAdd} {
		take := min(want-recBudget, counts[c])
		counts[c] -= take
		recBudget += take
	}

	var producers []int
	for i := 0; i < counts[machine.OpLoad]; i++ {
		producers = append(producers, g.AddNode(fmt.Sprintf("ld%d", i), machine.OpLoad).ID)
	}

	// Recurrence chains of 1-4 nodes, each closed by a loop-carried
	// back edge (a single-node chain is the x += a self-recurrence),
	// until the density budget is spent.
	for rec := 0; recBudget > 0; rec++ {
		length := min(recBudget, 2+rng.Intn(3))
		var chain []int
		for k := 0; k < length; k++ {
			class := machine.OpFAdd
			if k%3 == 2 {
				class = machine.OpFMul
			}
			n := g.AddNode(fmt.Sprintf("rec%d_%d", rec, k), class)
			if k > 0 {
				g.AddTrueDep(chain[k-1], n.ID, 0)
			} else {
				g.AddTrueDep(producers[rng.Intn(len(producers))], n.ID, 0)
			}
			chain = append(chain, n.ID)
		}
		dist := 1
		if spec.MaxDistance > 1 && rng.Float64() < 0.25 {
			dist = 1 + rng.Intn(spec.MaxDistance)
		}
		g.AddTrueDep(chain[len(chain)-1], chain[0], dist)
		producers = append(producers, chain...)
		recBudget -= length
	}

	// Arithmetic body: each op consumes a prior value, biased toward
	// its own affinity community by the ClusterAffinity knob.
	arith := []machine.OpClass{machine.OpFAdd, machine.OpFMul, machine.OpFDiv, machine.OpIAdd, machine.OpIMul}
	for _, class := range arith {
		for i := 0; i < counts[class]; i++ {
			n := g.AddNode(fmt.Sprintf("%s%d", class, i), class)
			g.AddTrueDep(pickAffine(rng, producers, n.ID, spec), n.ID, 0)
			producers = append(producers, n.ID)
		}
	}
	for i := 0; i < counts[machine.OpStore]; i++ {
		n := g.AddNode(fmt.Sprintf("st%d", i), machine.OpStore)
		g.AddTrueDep(pickAffine(rng, producers, n.ID, spec), n.ID, 0)
	}

	// Extra dependences: exactly round(density * nodes) of them, each
	// attempt adding one edge — no silent skips, so the knob is honored
	// (the Random generator's %8 cap is the bug this path exists to
	// avoid).  Forward pairs become distance-0 dependences (safe: the
	// distance-0 subgraph stays a forward DAG); backward or self pairs
	// become loop-carried.
	nExtra := int(spec.ExtraEdgeDensity*float64(spec.Nodes) + 0.5)
	for e := 0; e < nExtra; e++ {
		from := rng.Intn(g.NumNodes())
		to := pickExtraTarget(rng, spec.Nodes, from, spec)
		dist := 0
		if from >= to {
			dist = 1 + rng.Intn(spec.MaxDistance)
		}
		if g.Node(from).Class.ProducesValue() {
			g.AddTrueDep(from, to, dist)
		} else {
			g.AddMemDep(from, to, dist)
		}
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("ddg: synth produced invalid graph: %v", err)
	}
	return g, nil
}

// community maps a node ID onto its affinity community: contiguous
// blocks, so community locality mirrors program order.
func community(id, nodes, k int) int {
	c := id * k / nodes
	if c >= k {
		c = k - 1
	}
	return c
}

// pickAffine picks a producer feeding consumer: with probability
// ClusterAffinity it prefers producers in the consumer's community,
// falling back to (and otherwise choosing among) recent producers the
// way expression trees consume values.
func pickAffine(rng *rand.Rand, producers []int, consumer int, spec SynthSpec) int {
	n := len(producers)
	if n == 1 {
		return producers[0]
	}
	if rng.Float64() < spec.ClusterAffinity {
		want := community(consumer, spec.Nodes, spec.Communities)
		// Scan back from the most recent producer; the first same-
		// community hit keeps the choice biased recent like pickProducer.
		for k := n - 1; k >= 0 && k >= n-16; k-- {
			if community(producers[k], spec.Nodes, spec.Communities) == want {
				return producers[k]
			}
		}
	}
	recent := max(n/3, 1)
	return producers[n-1-rng.Intn(recent)]
}

// Apportion splits size operations across classes proportionally to the
// mix, handing the rounding remainder to loads and adds.  It is the one
// copy both body generators share: corpus.Generate apportions each
// SPECfp95 loop with it, Synth each synthesized body, and the exact
// sequence of rng draws is part of both generators' output.
func Apportion(mix [machine.NumOpClasses]float64, size int, rng *rand.Rand) [machine.NumOpClasses]int {
	total := 0.0
	for _, w := range mix {
		total += w
	}
	var counts [machine.NumOpClasses]int
	assigned := 0
	for c, w := range mix {
		counts[c] = int(w / total * float64(size))
		assigned += counts[c]
	}
	fill := []machine.OpClass{machine.OpLoad, machine.OpFAdd, machine.OpFMul, machine.OpIAdd}
	for assigned < size {
		counts[fill[rng.Intn(len(fill))]]++
		assigned++
	}
	return counts
}

// pickExtraTarget picks the consumer of an extra dependence: with
// probability ClusterAffinity it lands in the producer's community,
// otherwise anywhere, so the knob tunes cross-community traffic.
func pickExtraTarget(rng *rand.Rand, nodes, from int, spec SynthSpec) int {
	if rng.Float64() >= spec.ClusterAffinity {
		return rng.Intn(nodes)
	}
	k := spec.Communities
	want := community(from, nodes, k)
	lo := (want*nodes + k - 1) / k
	hi := ((want + 1) * nodes) / k
	if hi <= lo {
		return from
	}
	return lo + rng.Intn(hi-lo)
}
