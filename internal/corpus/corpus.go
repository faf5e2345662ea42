// Package corpus generates the experimental workload: a deterministic,
// synthetic stand-in for the SPECfp95 innermost loops that the paper
// extracted with the ICTINEO compiler (which we do not have).
//
// Every benchmark is described by a structural profile — loop count and
// size, operation mix, recurrence density and length, loop-carried
// dependence probability and distances, iteration counts and execution
// weights — encoding the published characteristics that actually drive
// the paper's results: *swim*/*mgrid*/*hydro2d* are wide and nearly
// recurrence-free (unrolling wins big), *tomcatv* carries long
// recurrences (the paper's noted 4-cluster exception), *fpppp* has huge
// straight-line bodies that are resource- and register-bound, *wave5*
// is memory-access heavy.  The generator is seeded per benchmark, so
// every run of every experiment sees the identical suite.
package corpus

import (
	"fmt"
	"math/rand"

	"repro/internal/ddg"
	"repro/internal/machine"
)

// Loop is one innermost loop of the suite.  The JSON tags are the
// service wire shape (internal/wire): a loop serializes with its full
// dependence graph via the ddg codec.
type Loop struct {
	// Graph is the loop body's dependence graph.
	Graph *ddg.Graph `json:"graph"`
	// Iters is the trip count per invocation (> 4; the paper only
	// schedules innermost loops with more than four iterations).
	Iters int `json:"iters,omitempty"`
	// Weight is the number of invocations, scaling this loop's share of
	// the benchmark's executed instructions.
	Weight int `json:"weight,omitempty"`
	// Bench is the owning benchmark's name.
	Bench string `json:"bench,omitempty"`
}

// Ops returns the operation count of one original loop iteration.
func (l *Loop) Ops() int { return l.Graph.NumNodes() }

// Benchmark is one synthetic SPECfp95 program.
type Benchmark struct {
	Name  string
	Loops []*Loop
}

// OpMix holds relative operation-class weights (they need not sum to 1).
type OpMix struct {
	Load, Store, FAdd, FMul, FDiv, IAdd, IMul float64
}

// Profile describes one benchmark's loop population.
type Profile struct {
	// Name labels the benchmark.
	Name string
	// Seed makes the benchmark reproducible.
	Seed int64
	// NLoops is the number of innermost loops.
	NLoops int
	// MinOps and MaxOps bound the body size.
	MinOps, MaxOps int
	// Mix weights the operation classes.
	Mix OpMix
	// RecurrenceProb is the chance a loop carries a recurrence cycle.
	RecurrenceProb float64
	// RecMinLen and RecMaxLen bound the recurrence length in operations.
	RecMinLen, RecMaxLen int
	// CrossIterProb is the chance of each extra loop-carried (non-cycle)
	// dependence; up to three are attempted per loop.
	CrossIterProb float64
	// MaxDistance bounds loop-carried distances.
	MaxDistance int
	// MinIters and MaxIters bound trip counts.
	MinIters, MaxIters int
	// MaxWeight bounds invocation counts (hot loops are heavy).
	MaxWeight int
}

// Profiles returns the ten SPECfp95 profiles in the paper's Figure 8
// order.  The structural parameters are the substitution documented in
// DESIGN.md.
func Profiles() []Profile {
	return []Profile{
		{Name: "tomcatv", Seed: 101, NLoops: 8, MinOps: 14, MaxOps: 38,
			Mix:            OpMix{Load: 0.30, Store: 0.10, FAdd: 0.28, FMul: 0.20, FDiv: 0.02, IAdd: 0.09, IMul: 0.01},
			RecurrenceProb: 0.8, RecMinLen: 3, RecMaxLen: 6,
			CrossIterProb: 0.5, MaxDistance: 2, MinIters: 60, MaxIters: 260, MaxWeight: 60},
		{Name: "swim", Seed: 102, NLoops: 8, MinOps: 16, MaxOps: 34,
			Mix:            OpMix{Load: 0.32, Store: 0.12, FAdd: 0.30, FMul: 0.18, FDiv: 0.0, IAdd: 0.08, IMul: 0.0},
			RecurrenceProb: 0.1, RecMinLen: 1, RecMaxLen: 2,
			CrossIterProb: 0.1, MaxDistance: 1, MinIters: 120, MaxIters: 520, MaxWeight: 80},
		{Name: "su2cor", Seed: 103, NLoops: 9, MinOps: 10, MaxOps: 30,
			Mix:            OpMix{Load: 0.28, Store: 0.10, FAdd: 0.26, FMul: 0.24, FDiv: 0.01, IAdd: 0.10, IMul: 0.01},
			RecurrenceProb: 0.4, RecMinLen: 1, RecMaxLen: 3,
			CrossIterProb: 0.3, MaxDistance: 2, MinIters: 40, MaxIters: 200, MaxWeight: 50},
		{Name: "hydro2d", Seed: 104, NLoops: 9, MinOps: 10, MaxOps: 28,
			Mix:            OpMix{Load: 0.30, Store: 0.12, FAdd: 0.28, FMul: 0.20, FDiv: 0.01, IAdd: 0.09, IMul: 0.0},
			RecurrenceProb: 0.2, RecMinLen: 1, RecMaxLen: 2,
			CrossIterProb: 0.2, MaxDistance: 1, MinIters: 80, MaxIters: 300, MaxWeight: 70},
		{Name: "mgrid", Seed: 105, NLoops: 7, MinOps: 20, MaxOps: 44,
			Mix:            OpMix{Load: 0.36, Store: 0.08, FAdd: 0.32, FMul: 0.16, FDiv: 0.0, IAdd: 0.08, IMul: 0.0},
			RecurrenceProb: 0.1, RecMinLen: 1, RecMaxLen: 2,
			CrossIterProb: 0.15, MaxDistance: 1, MinIters: 100, MaxIters: 400, MaxWeight: 90},
		{Name: "applu", Seed: 106, NLoops: 9, MinOps: 14, MaxOps: 34,
			Mix:            OpMix{Load: 0.28, Store: 0.10, FAdd: 0.26, FMul: 0.22, FDiv: 0.02, IAdd: 0.10, IMul: 0.01},
			RecurrenceProb: 0.5, RecMinLen: 2, RecMaxLen: 4,
			CrossIterProb: 0.3, MaxDistance: 2, MinIters: 30, MaxIters: 160, MaxWeight: 50},
		{Name: "turb3d", Seed: 107, NLoops: 8, MinOps: 12, MaxOps: 30,
			Mix:            OpMix{Load: 0.26, Store: 0.10, FAdd: 0.28, FMul: 0.24, FDiv: 0.0, IAdd: 0.10, IMul: 0.02},
			RecurrenceProb: 0.3, RecMinLen: 1, RecMaxLen: 3,
			CrossIterProb: 0.25, MaxDistance: 2, MinIters: 60, MaxIters: 260, MaxWeight: 60},
		{Name: "apsi", Seed: 108, NLoops: 9, MinOps: 10, MaxOps: 28,
			Mix:            OpMix{Load: 0.28, Store: 0.10, FAdd: 0.26, FMul: 0.20, FDiv: 0.04, IAdd: 0.11, IMul: 0.01},
			RecurrenceProb: 0.45, RecMinLen: 1, RecMaxLen: 3,
			CrossIterProb: 0.3, MaxDistance: 2, MinIters: 40, MaxIters: 180, MaxWeight: 40},
		{Name: "fpppp", Seed: 109, NLoops: 5, MinOps: 44, MaxOps: 72,
			Mix:            OpMix{Load: 0.24, Store: 0.08, FAdd: 0.30, FMul: 0.30, FDiv: 0.02, IAdd: 0.06, IMul: 0.0},
			RecurrenceProb: 0.15, RecMinLen: 1, RecMaxLen: 2,
			CrossIterProb: 0.1, MaxDistance: 1, MinIters: 20, MaxIters: 80, MaxWeight: 30},
		{Name: "wave5", Seed: 110, NLoops: 8, MinOps: 10, MaxOps: 24,
			Mix:            OpMix{Load: 0.34, Store: 0.14, FAdd: 0.22, FMul: 0.16, FDiv: 0.01, IAdd: 0.12, IMul: 0.01},
			RecurrenceProb: 0.35, RecMinLen: 1, RecMaxLen: 2,
			CrossIterProb: 0.4, MaxDistance: 3, MinIters: 50, MaxIters: 240, MaxWeight: 60},
	}
}

// SPECfp95 generates the full ten-benchmark suite.
func SPECfp95() []*Benchmark {
	profiles := Profiles()
	out := make([]*Benchmark, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, Generate(p))
	}
	return out
}

// Trimmed returns a reduced suite for tests and benchmarks: only the
// named benchmarks, each cut to at most perBench loops, in the order
// SPECfp95 lists them.
func Trimmed(names []string, perBench int) []*Benchmark {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var picked []*Benchmark
	for _, b := range SPECfp95() {
		if !want[b.Name] {
			continue
		}
		loops := b.Loops
		if len(loops) > perBench {
			loops = loops[:perBench]
		}
		picked = append(picked, &Benchmark{Name: b.Name, Loops: loops})
	}
	return picked
}

// Index maps every loop of a suite by its graph name ("tomcatv.loop0"),
// the identity service clients use in loop_ref fields.  Graph names are
// unique across the generated suite; Index panics on a duplicate so a
// corpus change that breaks ref stability fails loudly.
func Index(suite []*Benchmark) map[string]*Loop {
	idx := make(map[string]*Loop)
	for _, b := range suite {
		for _, l := range b.Loops {
			name := l.Graph.Name
			if _, dup := idx[name]; dup {
				panic(fmt.Sprintf("corpus: duplicate loop name %q", name))
			}
			idx[name] = l
		}
	}
	return idx
}

// TotalLoops counts the loops of a suite.
func TotalLoops(suite []*Benchmark) int {
	n := 0
	for _, b := range suite {
		n += len(b.Loops)
	}
	return n
}

// maxRegDemand bounds a loop's spill-free register demand so that every
// generated loop is schedulable on the 16-register 4-cluster files even
// when unrolled (DESIGN.md: the schedulers emit no spill code).
const maxRegDemand = 36

// Generate builds one benchmark from its profile.
func Generate(p Profile) *Benchmark {
	rng := rand.New(rand.NewSource(p.Seed))
	b := &Benchmark{Name: p.Name}
	for i := 0; i < p.NLoops; i++ {
		var g *ddg.Graph
		for {
			g = genLoop(p, rng, i)
			if err := g.Validate(); err != nil {
				panic(fmt.Sprintf("corpus: generated invalid loop: %v", err))
			}
			if regDemand(g) <= maxRegDemand {
				break
			}
		}
		iters := p.MinIters + rng.Intn(p.MaxIters-p.MinIters+1)
		weight := 1 + rng.Intn(p.MaxWeight)
		b.Loops = append(b.Loops, &Loop{Graph: g, Iters: iters, Weight: weight, Bench: p.Name})
	}
	return b
}

// genLoop builds one loop body.
func genLoop(p Profile, rng *rand.Rand, idx int) *ddg.Graph {
	g := ddg.New(fmt.Sprintf("%s.loop%d", p.Name, idx))
	size := p.MinOps + rng.Intn(p.MaxOps-p.MinOps+1)

	// Split the body into class counts following the mix.
	counts := ddg.Apportion(p.Mix.weights(), size, rng)

	// Loads first: they are the natural sources of the body.
	var producers []int
	for i := 0; i < counts[machine.OpLoad]; i++ {
		producers = append(producers, g.AddNode(fmt.Sprintf("ld%d", i), machine.OpLoad).ID)
	}
	if len(producers) == 0 {
		producers = append(producers, g.AddNode("ld0", machine.OpLoad).ID)
	}

	// Optional recurrence chain: r0 consumes the chain tail one
	// iteration back, the rest feed forward.
	if rng.Float64() < p.RecurrenceProb {
		length := p.RecMinLen
		if p.RecMaxLen > p.RecMinLen {
			length += rng.Intn(p.RecMaxLen - p.RecMinLen + 1)
		}
		var chain []int
		for k := 0; k < length; k++ {
			class := machine.OpFAdd
			if k%3 == 2 {
				class = machine.OpFMul
			}
			n := g.AddNode(fmt.Sprintf("rec%d", k), class)
			if k > 0 {
				g.AddTrueDep(chain[k-1], n.ID, 0)
			}
			// Mix in outside data so the recurrence is fed by the body.
			g.AddTrueDep(producers[rng.Intn(len(producers))], n.ID, 0)
			chain = append(chain, n.ID)
		}
		dist := 1
		if p.MaxDistance > 1 && rng.Float64() < 0.3 {
			dist = 1 + rng.Intn(p.MaxDistance)
		}
		g.AddTrueDep(chain[len(chain)-1], chain[0], dist)
		producers = append(producers, chain...)
	}

	// Arithmetic body: each op consumes one or two prior values, biased
	// toward recent producers (expression trees) with occasional reuse of
	// old ones (common subexpressions -> cross-tree traffic).
	arith := []machine.OpClass{machine.OpFAdd, machine.OpFMul, machine.OpFDiv, machine.OpIAdd, machine.OpIMul}
	for _, class := range arith {
		for i := 0; i < counts[class]; i++ {
			n := g.AddNode(fmt.Sprintf("%s%d", class, i), class)
			nsrc := 1 + rng.Intn(2)
			for s := 0; s < nsrc; s++ {
				g.AddTrueDep(pickProducer(rng, producers), n.ID, 0)
			}
			producers = append(producers, n.ID)
		}
	}

	// Stores sink late values.
	for i := 0; i < counts[machine.OpStore]; i++ {
		n := g.AddNode(fmt.Sprintf("st%d", i), machine.OpStore)
		g.AddTrueDep(pickProducer(rng, producers), n.ID, 0)
	}

	// Extra loop-carried dependences (x[i] = f(x[i-d]) patterns): from a
	// late producer back to an earlier consumer.
	for try := 0; try < 3; try++ {
		if rng.Float64() >= p.CrossIterProb {
			continue
		}
		from := producers[rng.Intn(len(producers))]
		to := rng.Intn(g.NumNodes())
		if to == from || !g.Node(from).Class.ProducesValue() {
			continue
		}
		dist := 1 + rng.Intn(p.MaxDistance)
		g.AddTrueDep(from, to, dist)
	}
	return g
}

// pickProducer prefers recent producers (4:1) over uniformly old ones.
func pickProducer(rng *rand.Rand, producers []int) int {
	if len(producers) == 1 {
		return producers[0]
	}
	if rng.Intn(5) != 0 {
		recent := len(producers) / 3
		if recent < 1 {
			recent = 1
		}
		return producers[len(producers)-1-rng.Intn(recent)]
	}
	return producers[rng.Intn(len(producers))]
}

// weights lays the mix out as per-class weights for ddg.Apportion.
func (m OpMix) weights() [machine.NumOpClasses]float64 {
	return [machine.NumOpClasses]float64{
		machine.OpLoad:  m.Load,
		machine.OpStore: m.Store,
		machine.OpFAdd:  m.FAdd,
		machine.OpFMul:  m.FMul,
		machine.OpFDiv:  m.FDiv,
		machine.OpIAdd:  m.IAdd,
		machine.OpIMul:  m.IMul,
	}
}

// regDemand is the spill-free lower bound on registers: every produced
// value with a consumer needs one register per iteration of its maximum
// consumer distance, plus one.
func regDemand(g *ddg.Graph) int {
	sum := 0
	for _, n := range g.Nodes() {
		if !n.Class.ProducesValue() {
			continue
		}
		d, used := 0, false
		for _, e := range g.OutEdges(n.ID) {
			if e.Kind != ddg.DepTrue {
				continue
			}
			used = true
			if e.Distance > d {
				d = e.Distance
			}
		}
		if used {
			sum += 1 + d
		}
	}
	return sum
}
