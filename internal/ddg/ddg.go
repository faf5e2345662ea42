// Package ddg implements the data-dependence graphs that the modulo
// schedulers consume: operations as nodes, dependences as edges carrying
// a latency and an iteration distance (0 = intra-iteration, >0 =
// loop-carried).
//
// The package also provides the standard modulo-scheduling analyses —
// ResMII, RecMII, strongly connected components (recurrences), ASAP /
// ALAP / depth / height / mobility — and the loop-unrolling transform of
// the paper (§5.2), which replicates the body U times and redistributes
// loop-carried distances across the copies.
package ddg

import (
	"fmt"
	"sort"
	"sync"
	"weak"

	"repro/internal/machine"
)

// Node is one operation of the loop body.
type Node struct {
	// ID is the node's dense index inside its Graph.
	ID int
	// Name is a human-readable label (IR destination or generated).
	Name string
	// Class determines the FU type and result latency.
	Class machine.OpClass
	// Orig is the ID of the node this one was copied from by Unroll;
	// equal to ID in a non-unrolled graph.
	Orig int
	// Copy is the unroll-copy index (0 in a non-unrolled graph).
	Copy int
}

// EdgeKind classifies a dependence.
type EdgeKind int

// Dependence kinds.  Only true dependences carry a register value and can
// therefore require an inter-cluster communication; memory and anti /
// output dependences only constrain ordering.
const (
	DepTrue EdgeKind = iota
	DepAnti
	DepOutput
	DepMem
)

// String returns a short name for the kind.
func (k EdgeKind) String() string {
	switch k {
	case DepTrue:
		return "true"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepMem:
		return "mem"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is one dependence.  The scheduling constraint it imposes is
//
//	time(To) >= time(From) + Latency - II*Distance
//
// and, for true dependences crossing clusters, a bus transfer must fit
// between producer completion and consumer issue.
type Edge struct {
	From, To int
	Latency  int
	Distance int
	Kind     EdgeKind
}

// Graph is a loop body's dependence graph.  Nodes are dense: Node(i).ID == i.
type Graph struct {
	// Name labels the loop in reports.
	Name string
	// UnrollFactor is 1 for an original graph, U after Unroll(U).
	UnrollFactor int

	nodes []*Node
	edges []*Edge
	out   [][]*Edge
	in    [][]*Edge

	// mu guards the derived-data caches below.  Embedding a lock also
	// makes `go vet`'s copylocks check reject wholesale copies of a Graph
	// — use Clone (which starts with fresh caches) to duplicate one.
	mu sync.Mutex
	// fp caches the content hash of Fingerprint (json.go); "" = not yet
	// computed.  Mutators (AddNode, AddEdge, UnmarshalJSON) reset it.
	fp string
	// memo caches expensive graph-only analyses (SMS order, flattened
	// edge arrays, RecMII, validation) keyed by the consumer's choice of
	// string.  Mutators reset it alongside fp.
	memo map[string]any
	// unrolled holds Unroll's shared result per factor > 1, weakly: a
	// caller that keeps the source graph (a cached no-unroll result)
	// does not pin its unrolled copies.  Mutators reset it alongside fp.
	unrolled map[int]weak.Pointer[Graph]
}

// Memoize returns the cached value for key, computing it with build on
// the first call.  The result is shared: callers must treat it as
// immutable.  build runs without the cache lock held, so concurrent
// first calls may compute redundantly (both results are identical on an
// immutable graph, and the last one wins); build must not mutate the
// graph.  Mutating the graph through AddNode/AddEdge/UnmarshalJSON
// empties the cache.
func (g *Graph) Memoize(key string, build func() any) any {
	g.mu.Lock()
	if v, ok := g.memo[key]; ok {
		g.mu.Unlock()
		return v
	}
	g.mu.Unlock()
	v := build()
	g.mu.Lock()
	if g.memo == nil {
		g.memo = make(map[string]any)
	}
	g.memo[key] = v
	g.mu.Unlock()
	return v
}

// invalidate empties every derived-data cache; called by each mutator.
func (g *Graph) invalidate() {
	g.mu.Lock()
	g.fp = ""
	g.memo = nil
	g.unrolled = nil
	g.mu.Unlock()
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, UnrollFactor: 1}
}

// AddNode appends an operation and returns it.
func (g *Graph) AddNode(name string, class machine.OpClass) *Node {
	g.invalidate()
	n := &Node{ID: len(g.nodes), Name: name, Class: class, Orig: len(g.nodes)}
	g.nodes = append(g.nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return n
}

// AddEdge appends a dependence with an explicit latency.
func (g *Graph) AddEdge(from, to, latency, distance int, kind EdgeKind) *Edge {
	if from < 0 || from >= len(g.nodes) || to < 0 || to >= len(g.nodes) {
		panic(fmt.Sprintf("ddg: edge %d->%d out of range (n=%d)", from, to, len(g.nodes)))
	}
	if distance < 0 {
		panic(fmt.Sprintf("ddg: edge %d->%d has negative distance %d", from, to, distance))
	}
	g.invalidate()
	e := &Edge{From: from, To: to, Latency: latency, Distance: distance, Kind: kind}
	g.edges = append(g.edges, e)
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	return e
}

// AddTrueDep appends a register flow dependence; the latency is the
// producer's result latency.
func (g *Graph) AddTrueDep(from, to, distance int) *Edge {
	return g.AddEdge(from, to, g.nodes[from].Class.Latency(), distance, DepTrue)
}

// AddMemDep appends a memory-ordering dependence with latency 1.
func (g *Graph) AddMemDep(from, to, distance int) *Edge {
	return g.AddEdge(from, to, 1, distance, DepMem)
}

// NumNodes returns the number of operations.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of dependences.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// Nodes returns the node slice; callers must not mutate it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Edges returns the edge slice; callers must not mutate it.
func (g *Graph) Edges() []*Edge { return g.edges }

// OutEdges returns the dependences leaving node id.
func (g *Graph) OutEdges(id int) []*Edge { return g.out[id] }

// InEdges returns the dependences entering node id.
func (g *Graph) InEdges(id int) []*Edge { return g.in[id] }

// Preds returns the distinct predecessor IDs of id (any kind, any distance).
func (g *Graph) Preds(id int) []int {
	return distinctEndpoints(g.in[id], func(e *Edge) int { return e.From })
}

// Succs returns the distinct successor IDs of id.
func (g *Graph) Succs(id int) []int {
	return distinctEndpoints(g.out[id], func(e *Edge) int { return e.To })
}

func distinctEndpoints(edges []*Edge, end func(*Edge) int) []int {
	seen := make(map[int]bool, len(edges))
	ids := make([]int, 0, len(edges))
	for _, e := range edges {
		v := end(e)
		if !seen[v] {
			seen[v] = true
			ids = append(ids, v)
		}
	}
	sort.Ints(ids)
	return ids
}

// OpCount returns the number of nodes per FU class, used by ResMII.
func (g *Graph) OpCount() [machine.NumFUClasses]int {
	var counts [machine.NumFUClasses]int
	for _, n := range g.nodes {
		counts[n.Class.FU()]++
	}
	return counts
}

// Validate checks structural invariants: dense IDs, in-range edges, a
// DAG over distance-0 edges (a same-iteration cycle is unschedulable),
// and no true dependence out of a store.  The verdict is memoized: a
// pipeline that schedules the same graph on many machines validates it
// once.
func (g *Graph) Validate() error {
	v := g.Memoize("ddg.validate", func() any {
		if err := g.validate(); err != nil {
			return err
		}
		return nil
	})
	if err, ok := v.(error); ok {
		return err
	}
	return nil
}

func (g *Graph) validate() error {
	for i, n := range g.nodes {
		if n.ID != i {
			return fmt.Errorf("ddg %s: node %d has ID %d", g.Name, i, n.ID)
		}
		if !n.Class.Valid() {
			return fmt.Errorf("ddg %s: node %d has invalid op class", g.Name, i)
		}
	}
	for _, e := range g.edges {
		if e.From < 0 || e.From >= len(g.nodes) || e.To < 0 || e.To >= len(g.nodes) {
			return fmt.Errorf("ddg %s: edge %d->%d out of range", g.Name, e.From, e.To)
		}
		if e.Distance < 0 {
			return fmt.Errorf("ddg %s: edge %d->%d has negative distance", g.Name, e.From, e.To)
		}
		if e.Kind == DepTrue && !g.nodes[e.From].Class.ProducesValue() {
			return fmt.Errorf("ddg %s: true dependence out of non-value node %s",
				g.Name, g.nodes[e.From].Name)
		}
	}
	if cyc := g.zeroDistanceCycle(); cyc != nil {
		return fmt.Errorf("ddg %s: cycle through distance-0 edges at node %s",
			g.Name, g.nodes[cyc[0]].Name)
	}
	return nil
}

// zeroDistanceCycle returns a node list on a distance-0 cycle, or nil.
func (g *Graph) zeroDistanceCycle() []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(g.nodes))
	var cycle []int
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = grey
		for _, e := range g.out[v] {
			if e.Distance != 0 {
				continue
			}
			switch color[e.To] {
			case grey:
				cycle = []int{e.To}
				return true
			case white:
				if visit(e.To) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := range g.nodes {
		if color[v] == white && visit(v) {
			return cycle
		}
	}
	return nil
}

// Clone returns a deep copy of the graph with fresh (empty) caches.
// This is the supported way to duplicate a Graph: the struct embeds a
// lock guarding its fingerprint/analysis caches, so a plain struct copy
// is rejected by `go vet` (copylocks) and would alias cache state even
// if it compiled silently.  Every duplicating path in this codebase
// (Unroll, wire decode, schedulers racing a shared loop) goes through
// Clone or builds a fresh graph node by node.
func (g *Graph) Clone() *Graph {
	c := New(g.Name)
	c.UnrollFactor = g.UnrollFactor
	for _, n := range g.nodes {
		nn := c.AddNode(n.Name, n.Class)
		nn.Orig, nn.Copy = n.Orig, n.Copy
	}
	for _, e := range g.edges {
		c.AddEdge(e.From, e.To, e.Latency, e.Distance, e.Kind)
	}
	return c
}

// LoopCarried returns the edges with Distance > 0.
func (g *Graph) LoopCarried() []*Edge {
	var out []*Edge
	for _, e := range g.edges {
		if e.Distance > 0 {
			out = append(out, e)
		}
	}
	return out
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("ddg %s: %d nodes, %d edges (%d loop-carried), unroll=%d",
		g.Name, len(g.nodes), len(g.edges), len(g.LoopCarried()), g.UnrollFactor)
}
