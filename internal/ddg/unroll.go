package ddg

import (
	"fmt"
	"weak"
)

// Unroll returns the graph whose body is u copies of the receiver's.
// Copy i of the consumer of an edge with iteration distance d depends on
// copy ((i-d) mod u) of the producer, at new distance ceil((d-i)/u)
// (derived in §5.2 of the paper: after unrolling, iteration K of the new
// loop contains original iterations K*u+i).
//
// The copies keep Orig/Copy metadata so statistics can count work per
// original iteration.  Unroll(1) is a plain clone.
//
// For u > 1 the result is shared: every call with the same factor gets
// the same graph, so its memoized analyses (SMS order, RecMII,
// validation) are computed once however many machines and policies
// schedule it.  Callers must treat it as immutable and Clone it to get
// a graph they may mutate.  The receiver holds it weakly — it is
// rebuilt, with identical content, once no caller holds it any more —
// and mutating the receiver through AddNode/AddEdge/UnmarshalJSON drops
// it.  Concurrent first calls may build it redundantly, but all of them
// return the graph stored first.
func (g *Graph) Unroll(u int) *Graph {
	if u < 1 {
		panic(fmt.Sprintf("ddg: Unroll factor %d < 1", u))
	}
	if u == 1 {
		return g.Clone()
	}
	g.mu.Lock()
	shared := g.unrolled[u].Value()
	g.mu.Unlock()
	if shared != nil {
		return shared
	}
	out := g.unroll(u)
	g.mu.Lock()
	defer g.mu.Unlock()
	if shared := g.unrolled[u].Value(); shared != nil {
		return shared
	}
	if g.unrolled == nil {
		g.unrolled = make(map[int]weak.Pointer[Graph], 1)
	}
	g.unrolled[u] = weak.Make(out)
	return out
}

// unroll builds the factor-u body; see Unroll.
func (g *Graph) unroll(u int) *Graph {
	out := New(fmt.Sprintf("%s.x%d", g.Name, u))
	out.UnrollFactor = g.UnrollFactor * u

	n := len(g.nodes)
	// Copy i of original node v gets ID i*n + v, so all nodes of one
	// unrolled iteration are contiguous: the scheduler's "iterations end
	// up on different clusters" behaviour emerges from the out-edge
	// profit, not from ID locality, but contiguity keeps dumps readable.
	for i := 0; i < u; i++ {
		for _, v := range g.nodes {
			nn := out.AddNode(fmt.Sprintf("%s.%d", v.Name, i), v.Class)
			nn.Orig = v.Orig
			nn.Copy = i*maxInt(g.UnrollFactor, 1) + v.Copy
		}
	}
	for _, e := range g.edges {
		for i := 0; i < u; i++ {
			// Consumer copy i depends on producer copy j, q new-iterations back.
			j := ((i-e.Distance)%u + u) % u
			q := (j - (i - e.Distance)) / u
			out.AddEdge(j*n+e.From, i*n+e.To, e.Latency, q, e.Kind)
		}
	}
	return out
}

// DepsNotMultiple counts loop-carried dependences whose distance is not
// a multiple of u — exactly the dependences that will cross iteration
// copies (and hence clusters) after unrolling by u.  This is the
// NDepsNotMult(G) term of the selective-unrolling estimate (Figure 6).
// Only true dependences count: ordering edges never move data.
func (g *Graph) DepsNotMultiple(u int) int {
	count := 0
	for _, e := range g.edges {
		if e.Kind != DepTrue || e.Distance == 0 {
			continue
		}
		if e.Distance%u != 0 {
			count++
		}
	}
	return count
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
