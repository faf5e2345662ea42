package ddg

import "sort"

// SCC is one recurrence of the graph: a strongly connected component
// (all edge distances considered) with more than one node, or a single
// node with a self-edge.  It constrains the II.
type SCC struct {
	// Nodes lists the member node IDs in ascending order.
	Nodes []int
	// RecMII is the minimum II imposed by this component's cycles.
	RecMII int
}

// tarjan computes the recurrence components (multi-node, or a single
// node with a self-edge) and each one's RecMII with Tarjan's algorithm,
// iterative so deep graphs cannot overflow the goroutine stack.  Trivial
// singletons are never materialised.  Components come out in reverse
// topological discovery order.
func (g *Graph) tarjan() []*SCC {
	n := len(g.nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	stack := make([]int, 0, n)
	var comps []*SCC
	next := 0

	type frame struct {
		v    int
		edge int
	}
	frameBuf := make([]frame, 0, n)
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := append(frameBuf[:0], frame{v: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.edge < len(g.out[f.v]) {
				w := g.out[f.v][f.edge].To
				f.edge++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				// Pop the component off the shared stack in place.
				top := len(stack)
				base := top
				for {
					base--
					w := stack[base]
					onStack[w] = false
					if w == v {
						break
					}
				}
				popped := stack[base:top]
				stack = stack[:base]
				if g.isRecurrence(popped) {
					members := append([]int(nil), popped...)
					sort.Ints(members)
					comps = append(comps, &SCC{Nodes: members})
				}
			}
		}
	}

	for _, c := range comps {
		c.RecMII = g.recMIIOfSubgraph(c.Nodes)
	}
	return comps
}

// isRecurrence reports whether the node set contains a cycle: more than
// one member, or a self-edge.
func (g *Graph) isRecurrence(nodes []int) bool {
	if len(nodes) > 1 {
		return true
	}
	v := nodes[0]
	for _, e := range g.out[v] {
		if e.To == v {
			return true
		}
	}
	return false
}

// Recurrences returns only the recurrence SCCs, sorted by RecMII
// descending (the paper's ordering priority), ties broken by smallest
// member ID for determinism.  Trivial singleton components are never
// materialised.
func (g *Graph) Recurrences() []*SCC {
	recs := g.tarjan()
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].RecMII != recs[j].RecMII {
			return recs[i].RecMII > recs[j].RecMII
		}
		return recs[i].Nodes[0] < recs[j].Nodes[0]
	})
	return recs
}
