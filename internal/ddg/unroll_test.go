package ddg

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"weak"

	"repro/internal/machine"
)

func TestUnrollByOneIsClone(t *testing.T) {
	g := SampleDotProduct()
	u := g.Unroll(1)
	if u.NumNodes() != g.NumNodes() || u.NumEdges() != g.NumEdges() {
		t.Fatalf("Unroll(1) changed sizes: %s vs %s", u, g)
	}
	if u.UnrollFactor != 1 {
		t.Errorf("UnrollFactor = %d, want 1", u.UnrollFactor)
	}
}

func TestUnrollSizes(t *testing.T) {
	g := SampleStencil()
	u := g.Unroll(4)
	if u.NumNodes() != 4*g.NumNodes() {
		t.Errorf("nodes = %d, want %d", u.NumNodes(), 4*g.NumNodes())
	}
	if u.NumEdges() != 4*g.NumEdges() {
		t.Errorf("edges = %d, want %d", u.NumEdges(), 4*g.NumEdges())
	}
	if u.UnrollFactor != 4 {
		t.Errorf("UnrollFactor = %d, want 4", u.UnrollFactor)
	}
	if err := u.Validate(); err != nil {
		t.Errorf("unrolled graph invalid: %v", err)
	}
}

func TestUnrollDistanceOneRecurrence(t *testing.T) {
	// acc -> acc at distance 1, unrolled by 2: acc0 -> acc1 at distance 0
	// and acc1 -> acc0 at distance 1 (one chained cycle, ratio doubled).
	g := New("r")
	a := g.AddNode("acc", machine.OpFAdd)
	g.AddTrueDep(a.ID, a.ID, 1)
	u := g.Unroll(2)
	if got := u.RecMII(); got != 6 { // 2 fadds (lat 3) per traversal, distance 1
		t.Errorf("RecMII of unrolled self-loop = %d, want 6", got)
	}
	var d0, d1 int
	for _, e := range u.Edges() {
		switch e.Distance {
		case 0:
			d0++
		case 1:
			d1++
		default:
			t.Errorf("unexpected distance %d", e.Distance)
		}
	}
	if d0 != 1 || d1 != 1 {
		t.Errorf("distance histogram d0=%d d1=%d, want 1,1", d0, d1)
	}
}

func TestUnrollDistanceTwoSplitsCycles(t *testing.T) {
	// Distance-2 self-recurrence unrolled by 2 splits into two distance-1
	// self-loops: each copy recurses with itself, no cross-copy edge.
	g := New("r2")
	a := g.AddNode("acc", machine.OpFAdd)
	g.AddTrueDep(a.ID, a.ID, 2)
	u := g.Unroll(2)
	for _, e := range u.Edges() {
		if e.From != e.To || e.Distance != 1 {
			t.Errorf("edge %d->%d dist %d, want self-loop dist 1", e.From, e.To, e.Distance)
		}
	}
	if got := u.RecMII(); got != 3 {
		t.Errorf("RecMII = %d, want 3", got)
	}
}

func TestUnrollDistanceExceedingFactor(t *testing.T) {
	g := New("far")
	a := g.AddNode("a", machine.OpIAdd)
	b := g.AddNode("b", machine.OpIAdd)
	g.AddTrueDep(a.ID, b.ID, 5)
	u := g.Unroll(2)
	// Consumer copy 0 (orig iter 2K) needs producer of iter 2K-5 = copy 1
	// of new-iter K-3; consumer copy 1 needs iter 2K-4 = copy 0, K-2.
	type key struct{ from, to, dist int }
	want := map[key]bool{
		{1*2 + 0, 0*2 + 1, 3}: true, // a.1 -> b.0  (IDs: copy*n + orig, n=2)
		{0*2 + 0, 1*2 + 1, 2}: true, // a.0 -> b.1
	}
	// Node IDs: copy i of node v is i*n+v with n=2: a.0=0, b.0=1, a.1=2, b.1=3.
	got := map[key]bool{}
	for _, e := range u.Edges() {
		got[key{e.From, e.To, e.Distance}] = true
	}
	wantEdges := map[key]bool{
		{2, 1, 3}: true, // a.1 -> b.0 dist 3
		{0, 3, 2}: true, // a.0 -> b.1 dist 2
	}
	_ = want
	for k := range wantEdges {
		if !got[k] {
			t.Errorf("missing edge %+v in %v", k, got)
		}
	}
}

func TestUnrollPreservesOrigMetadata(t *testing.T) {
	g := SampleDotProduct()
	u := g.Unroll(3)
	counts := map[int]int{}
	for _, n := range u.Nodes() {
		counts[n.Orig]++
		if n.Class != g.Node(n.Orig).Class {
			t.Errorf("copy %s changed class", n.Name)
		}
	}
	for orig, c := range counts {
		if c != 3 {
			t.Errorf("orig node %d has %d copies, want 3", orig, c)
		}
	}
}

func TestUnrollTwiceComposes(t *testing.T) {
	g := SampleStencil()
	u := g.Unroll(2).Unroll(3)
	if u.UnrollFactor != 6 {
		t.Errorf("UnrollFactor = %d, want 6", u.UnrollFactor)
	}
	if u.NumNodes() != 6*g.NumNodes() {
		t.Errorf("nodes = %d, want %d", u.NumNodes(), 6*g.NumNodes())
	}
}

func TestDepsNotMultiple(t *testing.T) {
	g := New("mix")
	a := g.AddNode("a", machine.OpIAdd)
	b := g.AddNode("b", machine.OpIAdd)
	g.AddTrueDep(a.ID, b.ID, 0) // intra-iteration: never counts
	g.AddTrueDep(a.ID, b.ID, 1) // not multiple of 2
	g.AddTrueDep(a.ID, b.ID, 2) // multiple of 2
	g.AddTrueDep(a.ID, b.ID, 3) // not multiple of 2
	g.AddMemDep(a.ID, b.ID, 1)  // ordering only: never counts
	if got := g.DepsNotMultiple(2); got != 2 {
		t.Errorf("DepsNotMultiple(2) = %d, want 2", got)
	}
	if got := g.DepsNotMultiple(3); got != 2 { // distances 1 and 2
		t.Errorf("DepsNotMultiple(3) = %d, want 2", got)
	}
	if got := g.DepsNotMultiple(1); got != 0 {
		t.Errorf("DepsNotMultiple(1) = %d, want 0", got)
	}
}

// randomGraph builds a pseudo-random valid DDG: distance-0 edges only go
// forward (keeping the intra-iteration subgraph acyclic), loop-carried
// edges go anywhere.
func randomGraph(r *rand.Rand) *Graph {
	g := New("rand")
	n := 2 + r.Intn(14)
	classes := []machine.OpClass{
		machine.OpIAdd, machine.OpIMul, machine.OpLoad,
		machine.OpFAdd, machine.OpFMul,
	}
	for i := 0; i < n; i++ {
		g.AddNode("n", classes[r.Intn(len(classes))])
	}
	edges := r.Intn(3 * n)
	for i := 0; i < edges; i++ {
		from, to := r.Intn(n), r.Intn(n)
		dist := 0
		if from >= to || r.Intn(3) == 0 {
			dist = 1 + r.Intn(4)
		}
		g.AddTrueDep(from, to, dist)
	}
	return g
}

func TestUnrollPropertyInvariants(t *testing.T) {
	// For any valid graph and factor u:
	//   * node count scales by u, edge count scales by u
	//   * per original edge, the u copy-edge distances sum to the original
	//   * the unrolled graph is valid
	prop := func(seed int64, uRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		u := 1 + int(uRaw%5)
		ug := g.Unroll(u)
		if ug.NumNodes() != u*g.NumNodes() || ug.NumEdges() != u*g.NumEdges() {
			return false
		}
		if err := ug.Validate(); err != nil {
			return false
		}
		// Distance-sum check: group copy edges by original (From,To,index).
		// Unroll emits the u copies of each original edge consecutively.
		orig := g.Edges()
		copies := ug.Edges()
		for i, oe := range orig {
			sum := 0
			for k := 0; k < u; k++ {
				sum += copies[i*u+k].Distance
			}
			if sum != oe.Distance {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecMIIPropertyFeasibility(t *testing.T) {
	// RecMII must be tight: II = RecMII admits no positive cycle, and
	// II = RecMII-1 (when >= 1) must admit one.
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r)
		rec := g.RecMII()
		if rec == 0 {
			return !g.hasCycle()
		}
		ids := allIDs(g.NumNodes())
		in := make([]bool, g.NumNodes())
		for _, v := range ids {
			in[v] = true
		}
		dist := make([]int, g.NumNodes())
		if !g.iiFeasible(ids, in, dist, rec) {
			return false
		}
		if rec > 1 && g.iiFeasible(ids, in, dist, rec-1) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestUnrollPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Unroll(0) did not panic")
		}
	}()
	SampleChain(2).Unroll(0)
}

// TestUnrollShared pins the sharing contract of Unroll for factors
// above 1: one graph per factor while a caller holds it, an identical
// rebuild once it is collected, a fresh graph after the source
// changes, and one graph for concurrent callers.
func TestUnrollShared(t *testing.T) {
	g := SampleStencil()
	a := g.Unroll(4)
	if b := g.Unroll(4); b != a {
		t.Fatal("two Unroll(4) calls returned different graphs while the first was reachable")
	}
	if g.Unroll(2) == a {
		t.Fatal("Unroll(2) returned the factor-4 graph")
	}
	if c := g.Unroll(1); c == g || c == g.Unroll(1) {
		t.Fatal("Unroll(1) did not return a fresh clone")
	}

	fp := a.Fingerprint()
	gone := weak.Make(a)
	a = nil
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("the source graph pins its unrolled graph")
	}
	rebuilt := g.Unroll(4)
	if rebuilt.Fingerprint() != fp {
		t.Fatalf("rebuild fingerprint %s, want %s", rebuilt.Fingerprint(), fp)
	}

	held := rebuilt
	g.AddNode("extra", machine.OpIAdd)
	if u := g.Unroll(4); u == held || u.NumNodes() != 4*g.NumNodes() {
		t.Fatalf("AddNode kept the stale unrolled graph (%d nodes, source %d)", u.NumNodes(), g.NumNodes())
	}
	held = g.Unroll(4)
	g.AddTrueDep(0, g.NumNodes()-1, 1)
	if u := g.Unroll(4); u == held || u.NumEdges() != 4*g.NumEdges() {
		t.Fatalf("AddEdge kept the stale unrolled graph (%d edges, source %d)", u.NumEdges(), g.NumEdges())
	}
	held = g.Unroll(4)
	blob, err := SampleDotProduct().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.UnmarshalJSON(blob); err != nil {
		t.Fatal(err)
	}
	if u := g.Unroll(4); u == held || u.Fingerprint() != SampleDotProduct().Unroll(4).Fingerprint() {
		t.Fatal("UnmarshalJSON kept the stale unrolled graph")
	}

	src := SampleFigure7()
	want := SampleFigure7().Unroll(3).Fingerprint()
	got := make([]*Graph, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = src.Unroll(3)
		}()
	}
	wg.Wait()
	for i, u := range got {
		if u.Fingerprint() != want {
			t.Errorf("goroutine %d: fingerprint %s, want %s", i, u.Fingerprint(), want)
		}
		if u != got[0] {
			t.Errorf("goroutine %d got a different graph than goroutine 0", i)
		}
	}
}
