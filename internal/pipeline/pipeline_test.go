package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/machine"
	"repro/internal/order"
	"repro/internal/sched"
)

// testLoops builds a handful of distinct loops around the shared sample
// graphs.
func testLoops(n int) []*corpus.Loop {
	makers := []func() *ddg.Graph{
		ddg.SampleStencil, ddg.SampleDotProduct, ddg.SampleFigure7,
		func() *ddg.Graph { return ddg.SampleChain(5) },
		func() *ddg.Graph { return ddg.SampleIndependent(6) },
	}
	var loops []*corpus.Loop
	for i := 0; i < n; i++ {
		g := makers[i%len(makers)]()
		g.Name = fmt.Sprintf("%s#%d", g.Name, i)
		loops = append(loops, &corpus.Loop{Graph: g, Iters: 16, Weight: 1, Bench: "test"})
	}
	return loops
}

// TestExactlyOnceUnderContention hammers a small overlapping key set
// from 32 goroutines and asserts each key is compiled exactly once,
// with every other request accounted as a hit or a dedup join.
func TestExactlyOnceUnderContention(t *testing.T) {
	const (
		goroutines = 32
		perG       = 64
		keys       = 8
	)
	loops := testLoops(keys)

	p := New(4)
	var mu sync.Mutex
	compiled := map[string]int{}
	p.compile = func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		mu.Lock()
		compiled[l.Graph.Name]++
		mu.Unlock()
		time.Sleep(time.Millisecond) // widen the in-flight window
		return &core.Result{Factor: 1}, nil
	}

	cfg := machine.TwoCluster(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := Request{Loop: loops[(g+i)%keys], Cfg: cfg}
				if _, err := p.Compile(req); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for name, n := range compiled {
		if n != 1 {
			t.Errorf("loop %s compiled %d times, want exactly once", name, n)
		}
	}
	if len(compiled) != keys {
		t.Errorf("compiled %d distinct keys, want %d", len(compiled), keys)
	}
	st := p.Stats()
	if st.Compilations != keys || st.Misses != keys {
		t.Errorf("stats report %d compilations / %d misses, want %d", st.Compilations, st.Misses, keys)
	}
	if total := st.Hits + st.Misses + st.DedupJoins; total != goroutines*perG {
		t.Errorf("hits+misses+joins = %d, want %d requests", total, goroutines*perG)
	}
	if st.CachedEntries != keys {
		t.Errorf("cache holds %d entries, want %d", st.CachedEntries, keys)
	}
}

// TestBatchPreservesOrder checks CompileBatch writes each response into
// its request's slot regardless of completion order.
func TestBatchPreservesOrder(t *testing.T) {
	loops := testLoops(24)
	p := New(8)
	p.compile = func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		time.Sleep(time.Duration(len(l.Graph.Name)%5) * time.Millisecond)
		return &core.Result{Factor: l.Graph.NumNodes()}, nil
	}
	cfg := machine.FourCluster(1, 1)
	var reqs []Request
	for _, l := range loops {
		reqs = append(reqs, Request{Loop: l, Cfg: cfg})
	}
	resps := p.CompileBatch(reqs)
	if len(resps) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(resps), len(reqs))
	}
	for i, r := range resps {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
		if want := reqs[i].Loop.Graph.NumNodes(); r.Result.Factor != want {
			t.Errorf("slot %d: result for a different request (factor %d, want %d)",
				i, r.Result.Factor, want)
		}
	}
	if st := p.Stats(); st.WallTime <= 0 {
		t.Error("batch recorded no wall time")
	}
}

// TestBatchReportsErrorsPerSlot checks one failing compilation does not
// poison the rest of the batch.
func TestBatchReportsErrorsPerSlot(t *testing.T) {
	loops := testLoops(6)
	boom := errors.New("boom")
	p := New(3)
	p.compile = func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		if l == loops[2] {
			return nil, boom
		}
		return &core.Result{Factor: 1}, nil
	}
	cfg := machine.TwoCluster(1, 1)
	var reqs []Request
	for _, l := range loops {
		reqs = append(reqs, Request{Loop: l, Cfg: cfg})
	}
	resps := p.CompileBatch(reqs)
	for i, r := range resps {
		if i == 2 {
			if !errors.Is(r.Err, boom) {
				t.Errorf("slot 2: err = %v, want boom", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("slot %d: unexpected error %v", i, r.Err)
		}
	}
}

// TestRealCompileCacheIdentity drives the default CompileFunc end to
// end: the second identical request must return the same *core.Result.
func TestRealCompileCacheIdentity(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleStencil(), Iters: 16, Weight: 1, Bench: "test"}
	p := New(2)
	cfg := machine.FourCluster(2, 1)
	req := Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: core.SelectiveUnroll}}
	a, err := p.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss for identical request")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.CompileTime <= 0 {
		t.Error("no compile time recorded")
	}
}

// TestUnrollFallback checks the default CompileFunc falls back to
// NoUnroll when unconditional unrolling cannot be scheduled, matching
// what the serial experiments cache did.
func TestUnrollFallback(t *testing.T) {
	// A big unroll factor on the register-starved, slow-bus 4-cluster
	// machine cannot be scheduled; the fallback must hand back factor 1.
	l := &corpus.Loop{Graph: ddg.SampleFigure7(), Iters: 16, Weight: 1, Bench: "test"}
	p := New(1)
	cfg := machine.FourCluster(1, 4)
	res, err := p.Compile(Request{Loop: l, Cfg: cfg,
		Opts: core.Options{Strategy: core.UnrollAll, Factor: 16}})
	if err != nil {
		t.Fatalf("fallback did not rescue the unschedulable unroll: %v", err)
	}
	if res.Factor != 1 {
		t.Errorf("factor = %d, want the NoUnroll fallback (1)", res.Factor)
	}
}

// TestUnrollFallbackIsVisible is the regression test for the invisible
// fallback: a Figure 8/10 row built from this result must be able to
// tell it is looking at a non-unrolled schedule.  The result carries
// the marker and the reason, Stats counts it, and the cached entry
// keeps all of it without double counting.
func TestUnrollFallbackIsVisible(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleFigure7(), Iters: 16, Weight: 1, Bench: "test"}
	p := New(1)
	cfg := machine.FourCluster(1, 4)
	req := Request{Loop: l, Cfg: cfg,
		Opts: core.Options{Strategy: core.UnrollAll, Factor: 16}}

	res, err := p.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Error("fallback result not marked FellBack")
	}
	if res.Decision.FailReason == "" {
		t.Error("fallback result has no Decision.FailReason")
	}
	if !strings.Contains(res.Decision.String(), "fell back") {
		t.Errorf("Decision.String() = %q does not surface the fallback", res.Decision)
	}
	if st := p.Stats(); st.Fallbacks != 1 {
		t.Errorf("Stats.Fallbacks = %d, want 1", st.Fallbacks)
	}
	if !strings.Contains(p.Stats().String(), "1 unroll fallbacks") {
		t.Errorf("Stats.String() = %q does not report fallbacks", p.Stats())
	}

	// The cache hit returns the same marked result and counts nothing new.
	res2, err := p.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Error("cache miss for identical fallback request")
	}
	if st := p.Stats(); st.Fallbacks != 1 {
		t.Errorf("Stats.Fallbacks after cache hit = %d, want still 1", st.Fallbacks)
	}

	// A compile that does not fall back must not be counted.
	if _, err := p.Compile(Request{Loop: l, Cfg: cfg, Opts: core.Options{}}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Fallbacks != 1 {
		t.Errorf("Stats.Fallbacks after clean compile = %d, want 1", st.Fallbacks)
	}
}

// TestUncacheableRequestsBypass checks per-run slices (explicit order,
// fixed assignment) are never cached: they have no stable key.
func TestUncacheableRequestsBypass(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleChain(4), Iters: 8, Weight: 1, Bench: "test"}
	p := New(1)
	cfg := machine.TwoCluster(1, 1)
	req := Request{Loop: l, Cfg: cfg,
		Opts: core.Options{Sched: sched.Options{Order: order.Topological(l.Graph)}}}
	if _, err := p.Compile(req); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(req); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Compilations != 2 {
		t.Errorf("uncacheable request compiled %d times over 2 calls, want 2", st.Compilations)
	}
	if st.CachedEntries != 0 {
		t.Errorf("uncacheable request left %d cache entries", st.CachedEntries)
	}
}

// TestErrorsAreCached checks a deterministic failure is cached like a
// success: the second request must not recompile.
func TestErrorsAreCached(t *testing.T) {
	l := testLoops(1)[0]
	p := New(1)
	calls := 0
	p.compile = func(*corpus.Loop, *machine.Config, core.Options) (*core.Result, error) {
		calls++
		return nil, errors.New("deterministic failure")
	}
	cfg := machine.TwoCluster(1, 1)
	req := Request{Loop: l, Cfg: cfg}
	if _, err := p.Compile(req); err == nil {
		t.Fatal("want error")
	}
	if _, err := p.Compile(req); err == nil {
		t.Fatal("want cached error")
	}
	if calls != 1 {
		t.Errorf("compile ran %d times, want 1", calls)
	}
}

// TestKeySeparatesConfigsAndOptions checks distinct machines or options
// never alias in the cache even when names collide.
func TestKeySeparatesConfigsAndOptions(t *testing.T) {
	l := testLoops(1)[0]
	a := machine.TwoCluster(1, 1)
	b := machine.TwoCluster(1, 1)
	b.Name = a.Name // same label...
	b.NBuses = 2    // ...different machine
	c := machine.TwoCluster(1, 1)
	c.FUsPerCluster = [machine.NumFUClasses]int{3, 2, 1} // different FU mix, same label
	h := machine.TwoCluster(1, 1)
	h.Hetero = [][machine.NumFUClasses]int{{2, 2, 2}, {1, 1, 1}}
	reqs := []Request{
		{Loop: l, Cfg: a},
		{Loop: l, Cfg: b},
		{Loop: l, Cfg: c},
		{Loop: l, Cfg: h},
		{Loop: l, Cfg: a, Opts: core.Options{Strategy: core.SelectiveUnroll}},
		{Loop: l, Cfg: a, Opts: core.Options{Scheduler: core.NystromEichenberger}},
		{Loop: l, Cfg: a, Opts: core.Options{Sched: sched.Options{MaxII: 9}}},
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		k := r.key()
		if seen[k] {
			t.Errorf("key collision: %s", k)
		}
		seen[k] = true
	}
}

// TestKeySeparatesDistinctGraphsWithSameName checks two different
// graphs sharing Bench and Name never alias in the cache: the key is
// anchored on graph identity.
func TestKeySeparatesDistinctGraphsWithSameName(t *testing.T) {
	g1, g2 := ddg.SampleChain(3), ddg.SampleChain(4)
	g2.Name = g1.Name
	l1 := &corpus.Loop{Graph: g1, Iters: 8, Weight: 1, Bench: "b"}
	l2 := &corpus.Loop{Graph: g2, Iters: 8, Weight: 1, Bench: "b"}
	p := New(1)
	cfg := machine.TwoCluster(1, 1)
	r1, err := p.Compile(Request{Loop: l1, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Compile(Request{Loop: l2, Cfg: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("distinct graphs with the same name aliased in the cache")
	}
	if r1.Schedule.Graph != g1 || r2.Schedule.Graph != g2 {
		t.Error("results wired to the wrong graphs")
	}
}

// TestKeyCanonicalizesRegisteredNames checks the cache is keyed on
// canonical registered names: the zero value, the canonical spelling
// and every alias share one entry, so the same compilation is never
// paid for twice because two callers spelled the strategy differently.
func TestKeyCanonicalizesRegisteredNames(t *testing.T) {
	l := testLoops(1)[0]
	cfg := machine.TwoCluster(1, 1)
	aliases := [][2]core.Options{
		{{}, {Scheduler: core.BSA, Strategy: core.NoUnroll}},
		{{Strategy: "none"}, {Strategy: core.NoUnroll}},
		{{Strategy: "all"}, {Strategy: core.UnrollAll}},
		{{Scheduler: "nystrom-eichenberger"}, {Scheduler: core.NystromEichenberger}},
	}
	for _, pair := range aliases {
		a := Request{Loop: l, Cfg: cfg, Opts: pair[0]}
		b := Request{Loop: l, Cfg: cfg, Opts: pair[1]}
		if a.key() != b.key() {
			t.Errorf("alias %+v and canonical %+v key differently:\n%s\n%s",
				pair[0], pair[1], a.key(), b.key())
		}
	}
	// And genuinely different strategies still separate.
	a := Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: "sweep:2"}}
	b := Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: "sweep:3"}}
	if a.key() == b.key() {
		t.Error("sweep:2 and sweep:3 share a cache key")
	}
}

// referenceKey is the fmt.Sprintf form Request.key replaced; the
// appended key must reproduce its bytes, which snapshot rows and peer
// lookups carry.
func referenceKey(r Request) string {
	return fmt.Sprintf("%s:%s|%s|%d|%v|%v|%d|%d|%d|%s|%s|%d|%d|%d|%d|%d|%d|%d",
		r.Loop.Graph.Fingerprint(), r.Loop.Bench,
		r.Cfg.Name, r.Cfg.NClusters, r.Cfg.FUsPerCluster, r.Cfg.Hetero,
		r.Cfg.NBuses, r.Cfg.BusLatency, r.Cfg.RegsPerCluster,
		engine.CanonicalScheduler(r.Opts.Scheduler.String()),
		engine.CanonicalStrategy(r.Opts.Strategy.String()), r.Opts.Factor,
		r.Opts.Sched.Policy, r.Opts.Sched.MaxII, r.Opts.Sched.ForceII,
		r.Opts.Exact.MaxNodes, r.Opts.Exact.MaxSteps, r.Opts.Exact.MaxII)
}

// TestKeyMatchesFormatReference holds the appended key to the
// fmt.Sprintf reference over every Table 1 machine, heterogeneous
// layouts (nil, empty, one and several clusters) and each keyed option
// field set on its own and all together.
func TestKeyMatchesFormatReference(t *testing.T) {
	cfgs := machine.Table1Configs()
	for _, hetero := range [][][machine.NumFUClasses]int{
		{},
		{{2, 1, 0}},
		{{2, 2, 2}, {1, 0, 1}, {0, 12, -3}},
	} {
		h := machine.FourCluster(2, 2)
		h.Name = "hetero \"pipe|name\""
		h.Hetero = hetero
		cfgs = append(cfgs, h)
	}
	odd := machine.TwoCluster(1, 1)
	odd.Name = ""
	odd.FUsPerCluster = [machine.NumFUClasses]int{-1, 0, 1 << 40}
	cfgs = append(cfgs, odd)

	opts := []core.Options{
		{},
		{Scheduler: core.NystromEichenberger},
		{Scheduler: "nystrom-eichenberger"},
		{Scheduler: "not-registered"},
		{Strategy: core.SelectiveUnroll},
		{Strategy: "all"},
		{Strategy: "sweep:3"},
		{Factor: 4},
		{Sched: sched.Options{Policy: sched.PolicyFirstFit}},
		{Sched: sched.Options{MaxII: 9}},
		{Sched: sched.Options{ForceII: 7}},
		{Exact: exact.Budget{MaxNodes: -1}},
		{Exact: exact.Budget{MaxSteps: 1 << 40}},
		{Exact: exact.Budget{MaxII: 12}},
		{Scheduler: core.Exact, Strategy: core.UnrollAll, Factor: -2,
			Sched: sched.Options{Policy: sched.PolicyRoundRobin, MaxII: 31, ForceII: 5},
			Exact: exact.Budget{MaxNodes: 64, MaxSteps: -9223372036854775808, MaxII: 40}},
	}
	loops := testLoops(2)
	loops[1].Bench = "b|é:"
	n := 0
	for _, l := range loops {
		for _, cfg := range cfgs {
			for _, o := range opts {
				r := Request{Loop: l, Cfg: cfg, Opts: o}
				if got, want := r.key(), referenceKey(r); got != want {
					t.Errorf("key differs from the fmt.Sprintf reference:\n got %s\nwant %s", got, want)
				}
				n++
			}
		}
	}
	if n < 2*9*len(opts) {
		t.Fatalf("checked %d keys, want at least one per Table 1 config and option set", n)
	}
}

// TestUncancellableCompileRunsOnCallerGoroutine checks that a compile
// nobody can abandon skips the fill goroutine: under Compile the
// CompileFunc runs with this test's frame on its stack, under a
// cancellable context it does not.
func TestUncancellableCompileRunsOnCallerGoroutine(t *testing.T) {
	const self = "TestUncancellableCompileRunsOnCallerGoroutine"
	var onCaller []bool
	p := New(1)
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		pcs := make([]uintptr, 64)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		found := false
		for {
			f, more := frames.Next()
			found = found || strings.HasSuffix(f.Function, "."+self)
			if !more {
				break
			}
		}
		onCaller = append(onCaller, found)
		return stubResult(), nil
	})
	loops := testLoops(2)
	cfg := machine.TwoCluster(1, 1)
	if _, err := p.Compile(Request{Loop: loops[0], Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := p.CompileCtx(ctx, Request{Loop: loops[1], Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false}; !slices.Equal(onCaller, want) {
		t.Errorf("compile found the caller's frame %v (Compile, then CompileCtx with a deadline), want %v", onCaller, want)
	}
}

// TestFallbackEmitsStageTelemetry pins the satellite invariant on the
// fourth compile path: a result produced by the UnrollAll→NoUnroll
// fallback still carries the canonical stage set (from the fallback's
// own Compile) alongside FellBack.
func TestFallbackEmitsStageTelemetry(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleFigure7(), Iters: 16, Weight: 1, Bench: "test"}
	p := New(1)
	cfg := machine.FourCluster(1, 4)
	res, err := p.Compile(Request{Loop: l, Cfg: cfg,
		Opts: core.Options{Strategy: core.UnrollAll, Factor: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Fatal("fixture compilation no longer falls back")
	}
	tel := res.Stages
	if tel == nil {
		t.Fatal("fallback result has no stage telemetry")
	}
	want := []string{"analyze", "unroll", "schedule", "validate"}
	if len(tel.Stages) != len(want) {
		t.Fatalf("stage count %d, want %d", len(tel.Stages), len(want))
	}
	var sum int64
	for i, s := range tel.Stages {
		if string(s.Name) != want[i] {
			t.Errorf("stage[%d] = %s, want %s", i, s.Name, want[i])
		}
		sum += int64(s.Duration)
	}
	if sum > int64(tel.Total) {
		t.Errorf("stage sum %d over total %d", sum, int64(tel.Total))
	}
	if res.Policy != string(core.NoUnroll) {
		t.Errorf("fallback policy = %q, want no_unroll", res.Policy)
	}
}

// TestPortfolioThroughPipeline compiles the portfolio policy through
// the cache and checks dedup: two requests, one compilation, shared
// result with telemetry.
func TestPortfolioThroughPipeline(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleStencil(), Iters: 16, Weight: 1, Bench: "test"}
	p := New(2)
	cfg := machine.FourCluster(1, 1)
	req := Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: core.Portfolio}}
	r1, err := p.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("portfolio result not cached")
	}
	if s := p.Stats(); s.Compilations != 1 {
		t.Errorf("compilations = %d, want 1", s.Compilations)
	}
	if r1.Stages == nil || r1.Stages.Policy != "portfolio" || r1.Stages.Winner == "" {
		t.Errorf("portfolio telemetry missing: %+v", r1.Stages)
	}
}

// TestFallbackEngagesForAliasSpelling: "all" and "unroll_all" share a
// canonical cache key, so the fallback must engage for the alias too —
// otherwise the cached outcome would depend on which spelling compiled
// first.
func TestFallbackEngagesForAliasSpelling(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleFigure7(), Iters: 16, Weight: 1, Bench: "test"}
	p := New(1)
	cfg := machine.FourCluster(1, 4)
	res, err := p.Compile(Request{Loop: l, Cfg: cfg,
		Opts: core.Options{Strategy: "all", Factor: 16}})
	if err != nil {
		t.Fatalf("alias spelling did not fall back: %v", err)
	}
	if !res.FellBack {
		t.Fatal("alias spelling compiled without the fallback engaging")
	}
	// The canonical spelling joins the same entry.
	res2, err := p.Compile(Request{Loop: l, Cfg: cfg,
		Opts: core.Options{Strategy: core.UnrollAll, Factor: 16}})
	if err != nil || res2 != res {
		t.Errorf("canonical spelling did not hit the alias's cache entry (err %v)", err)
	}
}

// TestCachedResultDoesNotPinUnrolledGraph: a cached selective result
// that kept the original loop does not keep the unrolled graph its
// decision built alive — the loop holds its shared unrolled graphs
// weakly — while a cached unroll_all result, which schedules that
// graph, does.  A daemon's cache of not-unrolled results must not grow
// by a hidden unrolled copy per loop.
func TestCachedResultDoesNotPinUnrolledGraph(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleFigure7(), Iters: 16, Weight: 1, Bench: "test"}
	cfg := machine.FourCluster(1, 2)
	p := New(1)

	// Hold the shared graph across the compile, so the selective
	// decision is known to have used this very graph.
	u := l.Graph.Unroll(cfg.NClusters)
	shared := weak.Make(u)
	res, err := p.Compile(Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: core.SelectiveUnroll}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.BusLimited || res.Decision.Unrolled {
		t.Fatalf("want a bus-limited loop left rolled, got decision %v", res.Decision)
	}
	if l.Graph.Unroll(cfg.NClusters) != u {
		t.Fatal("the loop did not keep sharing its unrolled graph")
	}
	u = nil
	runtime.GC()
	if shared.Value() != nil {
		t.Fatal("the cached selective result pins the unrolled graph")
	}

	all, err := p.Compile(Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: core.UnrollAll}})
	if err != nil {
		t.Fatal(err)
	}
	if all.Factor != cfg.NClusters {
		t.Fatalf("unroll_all factor %d, want %d", all.Factor, cfg.NClusters)
	}
	scheduled := weak.Make(all.Schedule.Graph)
	all = nil
	runtime.GC()
	if scheduled.Value() == nil {
		t.Fatal("the cached unroll_all result lost the graph it schedules")
	}
	if l.Graph.Unroll(cfg.NClusters) != scheduled.Value() {
		t.Fatal("unroll_all did not schedule the loop's shared unrolled graph")
	}
	if st := p.Stats(); st.CachedEntries != 2 {
		t.Fatalf("%d cached entries, want both results", st.CachedEntries)
	}
}
