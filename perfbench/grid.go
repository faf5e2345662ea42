package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/unroll"
)

// gridOptions are the paper's four compilation flavours: BSA without
// unrolling, with unconditional unrolling and with selective unrolling
// (Figure 8), and the Nystrom-Eichenberger baseline (Figure 4).
var gridOptions = []core.Options{
	{Scheduler: core.BSA, Strategy: core.NoUnroll},
	{Scheduler: core.BSA, Strategy: core.UnrollAll},
	{Scheduler: core.BSA, Strategy: core.SelectiveUnroll},
	{Scheduler: core.NystromEichenberger, Strategy: core.NoUnroll},
}

// gridItem is one compile of the grid.
type gridItem struct {
	loop, cfg, opt int
	l              *corpus.Loop
}

// grid is the paper's evaluation: every loop × Table 1 config × flavour.
type grid struct {
	suite []*corpus.Benchmark
	cfgs  []machine.Config
	items []gridItem
	index map[[4]int]int
	// order is every item, largest loop first: the pass order.
	order []int
}

// newGrid builds the grid over the paper's own corpus
// (corpus.SPECfp95); the seed does not change it.  Its compile cost is
// concentrated in a handful of loops — on a corpus with every profile
// seed offset by 3, one fpppp loop takes 8 of the grid's 14
// compile-seconds — so seed-offset corpora moved compiles per second
// threefold between seeds and no bound could hold.
func newGrid() *grid {
	g := &grid{suite: corpus.SPECfp95(), cfgs: machine.Table1Configs(), index: map[[4]int]int{}}
	for b, bm := range g.suite {
		for li, l := range bm.Loops {
			for c := range g.cfgs {
				for o := range gridOptions {
					g.index[[4]int{b, li, c, o}] = len(g.items)
					g.items = append(g.items, gridItem{loop: li, cfg: c, opt: o, l: l})
				}
			}
		}
	}
	// Feed the largest loops first, so that the few expensive compiles
	// do not land at the end of a pass and leave a worker idle.
	g.order = g.all()
	sort.SliceStable(g.order, func(a, b int) bool {
		return g.items[g.order[a]].l.Ops() > g.items[g.order[b]].l.Ops()
	})
	return g
}

func (g *grid) request(i int) pipeline.Request {
	it := g.items[i]
	return pipeline.Request{Loop: it.l, Cfg: g.cfgs[it.cfg], Opts: gridOptions[it.opt]}
}

// all returns every item index.
func (g *grid) all() []int {
	idx := make([]int, len(g.items))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// warm returns the items of each benchmark's first loop: the set-up's
// warm-up pass.
func (g *grid) warm() []int {
	var idx []int
	for i, it := range g.items {
		if it.loop == 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// gridPass is one cold pass over some grid items.
type gridPass struct {
	idx  []int
	res  []*core.Result
	errs []error
	lat  []time.Duration
	wall time.Duration
	pipe *pipeline.Pipeline
	// stages holds the telemetry of every compile a traced pass ran.
	stages []*engine.Telemetry
}

// opKey identifies one grid compile inside a pass (every key is
// distinct there), linking the pipeline's compile call to its span.
type opKey struct {
	l     *corpus.Loop
	cfg   string
	sched core.Scheduler
	strat core.Strategy
}

// runPass compiles the items on a fresh pipeline with the given number
// of workers, timing each Pipeline.Compile call.  With a tracer, the
// pipeline compiles through the traced engines and every layer call is
// a span.
func (g *grid) runPass(idx []int, workers int, tr *tracer) *gridPass {
	p := pipeline.New(workers)
	pass := &gridPass{
		idx:  idx,
		res:  make([]*core.Result, len(idx)),
		errs: make([]error, len(idx)),
		lat:  make([]time.Duration, len(idx)),
		pipe: p,
	}
	var mu sync.Mutex
	if tr != nil {
		p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
			sp := tr.lookup(opKey{l, cfg.Name, opts.Scheduler, opts.Strategy}).child("engine.compile")
			res, err := referenceCompile(withSpan(context.Background(), sp), l, cfg, tracedOptions(opts))
			sp.end()
			if err == nil {
				mu.Lock()
				pass.stages = append(pass.stages, res.Stages)
				mu.Unlock()
			}
			return res, err
		})
	}
	start := time.Now()
	parallel(len(idx), workers, func(k int) {
		req := g.request(idx[k])
		key := opKey{req.Loop, req.Cfg.Name, req.Opts.Scheduler, req.Opts.Strategy}
		root := tr.start("pipeline.compile", 0, 0)
		tr.link(key, root)
		t0 := time.Now()
		pass.res[k], pass.errs[k] = p.Compile(req)
		pass.lat[k] = time.Since(t0)
		root.end()
		tr.unlink(key, root)
	})
	pass.wall = time.Since(start)
	return pass
}

// runPaperGrid is the paper-grid workload: cold passes of the whole
// grid on nproc pipeline workers, for the measured window.
func runPaperGrid(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	var g *grid
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		g = newGrid()
		g.runPass(g.warm(), e.procs, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = median(setups)
	all := g.order
	rep.line("paper-grid: %d loops x %d configs x %d flavours = %d compiles per pass, %d workers",
		len(corpus.Index(g.suite)), len(g.cfgs), len(gridOptions), len(all), e.procs)

	var passes, traced []*gridPass
	var allocPerCompile float64
	var mismatches int
	// more reports whether another pass fits the window.
	start := time.Now()
	more := func(done []*gridPass) bool {
		if len(done) == 0 {
			return true
		}
		return time.Since(start)+done[len(done)-1].wall/2 < e.seconds
	}
	if e.trace {
		tracedOptions(core.Options{}) // register the traced engines before timing
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		passes = append(passes, g.runPass(all, e.procs, nil))
		runtime.ReadMemStats(&after)
		allocPerCompile = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(all))
		tr := newTracer()
		for more(traced) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p := g.runPass(all, e.procs, tr)
			mismatches += g.mismatches(rep, passes[0], p)
			traced = append(traced, p)
		}
		gridLayers(rep, g, passes[0], traced, tr, allocPerCompile)
		if err := writeSpans(spanFile(e, "paper-grid"), tr.snapshot()); err != nil {
			return nil, err
		}
	} else {
		for more(passes) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p := g.runPass(all, e.procs, nil)
			if len(passes) > 0 {
				// Later passes are checked against the first as they
				// finish and dropped, so memory does not grow with the
				// number of passes.
				mismatches += g.mismatches(rep, passes[0], p)
				p.res, p.errs, p.pipe = nil, nil, nil
			}
			passes = append(passes, p)
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	status := g.verify(rep, passes[0], e.procs)

	// Every figure is a median over passes: a stall of the shared host
	// moves one pass, not the run.
	var n int
	var rates, p50s, p99s []float64
	var ok int64
	for _, p := range passes {
		passOK := 0
		lat := sortedCopy(durationsMS(p.lat))
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
		n += len(lat)
		for k := range p.idx {
			switch status[p.idx[k]] {
			case outcomeOK:
				passOK++
			case outcomeWrong:
				rep.failed++
			}
		}
		ok += int64(passOK)
		rates = append(rates, float64(passOK)/p.wall.Seconds())
	}
	rep.attempted = int64(n)
	for _, p := range traced {
		rep.attempted += int64(len(p.idx))
	}
	rep.failed += int64(mismatches)
	rep.line("paper-grid: outcomes ok=%d failed=%d; fail_share %.4f", ok, rep.failed, share(float64(int64(n)-ok), float64(n)))
	rep.metrics["goodput_per_s"] = median(rates)
	rep.metrics["latency_p50_ms"] = median(p50s)
	rep.metrics["ok_share"] = share(float64(ok), float64(n))
	rep.metrics["peak_rss_mb"] = rss
	rep.metrics["ipc_rel_geomean"] = g.ipcRelGeomean(passes[0])
	rep.metrics["code_words"] = g.codeWords(passes[0])
	for i, p := range passes {
		rep.line("paper-grid: pass %d: %.3f s, %.1f compiles/s, p50 %.4f ms, p99 %.3f ms", i, p.wall.Seconds(), rates[i], p50s[i], p99s[i])
	}
	rep.line("paper-grid: %d untraced passes, %d compile calls (median p99 %.3f ms), %d traced passes",
		len(passes), n, median(p99s), len(traced))
	return rep, nil
}

// outcome classes of one operation.
const (
	outcomeOK = iota
	outcomeUnschedulable
	outcomeWrong
)

// verify checks a pass against the in-process reference compile of
// every key, simulating every schedule.  It returns the outcome class
// per grid item.
func (g *grid) verify(rep *report, first *gridPass, workers int) []int {
	status := make([]int, len(g.items))
	msgs := make([]string, len(first.idx))
	parallel(len(first.idx), workers, func(k int) {
		i := first.idx[k]
		req := g.request(i)
		ref, refErr := referenceCompile(context.Background(), req.Loop, &req.Cfg, req.Opts)
		if err := checkAgainstReference(first.res[k], first.errs[k], ref, refErr); err != nil {
			status[i] = outcomeWrong
			msgs[k] = fmt.Sprintf("%s on %s (%s/%s): %v", req.Loop.Graph.Name, req.Cfg.Name,
				req.Opts.Scheduler, req.Opts.Strategy, err)
		} else if first.errs[k] != nil {
			status[i] = outcomeUnschedulable
		}
	})
	for _, m := range msgs {
		if m != "" {
			rep.problem("paper-grid: %s", m)
		}
	}
	return status
}

// mismatches counts the compiles of p whose schedule differs from the
// same item's in first (both passes run the items in the same order).
func (g *grid) mismatches(rep *report, first, p *gridPass) int {
	n := 0
	for k, i := range p.idx {
		a, b := first.res[k], p.res[k]
		if (a == nil) != (b == nil) || (a != nil && schedSig(a) != schedSig(b)) {
			n++
			rep.problem("paper-grid: %s differs between passes", g.items[i].l.Graph.Name)
		}
	}
	return n
}

// ipcRelGeomean is the paper's headline number: per benchmark, the
// weighted IPC of every clustered config × flavour relative to the
// unified machine under BSA without unrolling, geometric mean over all.
func (g *grid) ipcRelGeomean(p *gridPass) float64 {
	res := make([]*core.Result, len(g.items))
	for k, i := range p.idx {
		res[i] = p.res[k]
	}
	accum := func(b, c, o int) (stats.Accum, bool) {
		var acc stats.Accum
		for li, l := range g.suite[b].Loops {
			r := res[g.index[[4]int{b, li, c, o}]]
			if r == nil {
				return acc, false
			}
			acc.Add(int64(l.Iters)*int64(l.Ops())*int64(l.Weight), loopCycles(l, r)*int64(l.Weight))
		}
		return acc, true
	}
	var rels []float64
	for b := range g.suite {
		base, ok := accum(b, 0, 0)
		if !ok {
			continue
		}
		for c := range g.cfgs {
			if !g.cfgs[c].Clustered() {
				continue
			}
			for o := range gridOptions {
				if acc, ok := accum(b, c, o); ok {
					rels = append(rels, acc.Relative(base))
				}
			}
		}
	}
	return stats.GeoMean(rels)
}

// codeWords totals the emitted instruction words over the pass.
func (g *grid) codeWords(p *gridPass) float64 {
	var n int64
	for _, r := range p.res {
		if r != nil {
			n += codeWords(r)
		}
	}
	return float64(n)
}

// gridLayers derives the per-layer metrics of a traced paper-grid run.
func gridLayers(rep *report, g *grid, untraced *gridPass, traced []*gridPass, tr *tracer, allocPerCompile float64) {
	m := rep.metrics
	lad := attribute(tr.snapshot())
	var e2e time.Duration
	var lat []float64
	var st pipeline.Stats
	var stages []*engine.Telemetry
	var okRes []*core.Result
	var unsched, selective, unrolled int
	for _, p := range traced {
		for k := range p.idx {
			e2e += p.lat[k]
			lat = append(lat, ms(p.lat[k]))
			if r := p.res[k]; r != nil {
				okRes = append(okRes, r)
				if gridOptions[g.items[p.idx[k]].opt].Strategy == core.SelectiveUnroll {
					selective++
					if r.Decision.Unrolled {
						unrolled++
					}
				}
			} else if unschedulable(p.errs[k]) {
				unsched++
			}
		}
		s := p.pipe.Stats()
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.DedupJoins += s.DedupJoins
		st.Fallbacks += s.Fallbacks
		st.Evictions += s.Evictions
		st.Compilations += s.Compilations
		st.CompileTime += s.CompileTime
		stages = append(stages, p.stages...)
	}
	n := float64(len(traced))
	m["trace.op_ms"] = mean(lat)
	m["trace.unattributed_ms"] = lad.report(rep, e2e)
	m["trace.overhead_share"] = share(mean(lat), mean(durationsMS(untraced.lat))) - 1
	m["pipeline.self_ms"] = lad.selfPerOpMS("pipeline.compile")
	m["engine.self_ms"] = lad.selfPerOpMS("engine.compile")
	m["order.sms_ms"] = lad.meanBusyMS("order.sms")
	m["sched.schedule_ms"] = lad.meanBusyMS("sched.schedule")
	m["assign.ne_ms"] = lad.meanBusyMS("assign.ne")
	stageMetrics(m, stages)
	m["sched.ii_over_mii"] = iiOverMII(okRes)
	m["sched.unschedulable"] = float64(unsched) / n
	m["unroll.unrolled_share"] = share(float64(unrolled), float64(selective))
	m["pipeline.hit_rate"] = share(float64(st.Hits), float64(st.Hits+st.Misses))
	m["pipeline.evictions"] = float64(st.Evictions) / n
	m["pipeline.dedup_joins"] = float64(st.DedupJoins) / n
	m["pipeline.fallbacks"] = float64(st.Fallbacks) / n
	m["pipeline.compile_ms"] = share(ms(st.CompileTime), float64(st.Compilations))
	m["runtime.alloc_bytes_per_compile"] = allocPerCompile

	// Direct probes of the layers the pipeline path hides: a cache hit,
	// the unroll transformation, and the selective decision.
	last := traced[len(traced)-1]
	t0 := time.Now()
	for _, i := range last.idx {
		last.pipe.Compile(g.request(i))
	}
	m["pipeline.hit_us"] = us(time.Since(t0)) / float64(len(last.idx))
	var unrolls, sels []float64
	cfgs := []machine.Config{machine.TwoCluster(1, 1), machine.FourCluster(1, 1)}
	for _, bm := range g.suite {
		for _, l := range bm.Loops {
			for _, f := range []int{2, 4} {
				t := time.Now()
				l.Graph.Unroll(f)
				unrolls = append(unrolls, ms(time.Since(t)))
			}
			for i := range cfgs {
				t := time.Now()
				_, _ = unroll.Selective(l.Graph, &cfgs[i], nil) // cost probe; outcomes are checked on the grid
				sels = append(sels, ms(time.Since(t)))
			}
		}
	}
	m["ddg.unroll_ms"] = mean(unrolls)
	m["unroll.selective_ms"] = mean(sels)
	for _, name := range []string{
		"ddg.fingerprint_us",
		"wire.decode_us", "wire.encode_us", "wire.request_bytes", "wire.response_bytes",
		"service.handler_ms", "service.self_ms", "service.rejected", "service.deadlines",
		"client.transport_ms", "client.retries",
		"cluster.router_hop_ms", "cluster.peer_fetch_ms", "cluster.hit_rate", "cluster.failovers",
		"loadgen.lateness_p99_ms", "loadgen.sent_share",
	} {
		m[name] = 0 // layers the in-process grid does not cross
	}
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// stageMetrics averages the engine's own per-stage telemetry over the
// compiles that ran, plus II-search attempts and portfolio waste.
func stageMetrics(m map[string]float64, stages []*engine.Telemetry) {
	var analyze, unrollT, schedule, validate, attempts []float64
	var cands, lost int
	for _, t := range stages {
		if t == nil {
			continue
		}
		for _, s := range t.Stages {
			switch s.Name {
			case engine.StageAnalyze:
				analyze = append(analyze, ms(s.Duration))
			case engine.StageUnroll:
				unrollT = append(unrollT, ms(s.Duration))
			case engine.StageSchedule:
				schedule = append(schedule, ms(s.Duration))
			case engine.StageValidate:
				validate = append(validate, ms(s.Duration))
			}
		}
		attempts = append(attempts, float64(t.Attempts))
		if len(t.Candidates) > 1 {
			for _, c := range t.Candidates {
				cands++
				if !c.Won {
					lost++
				}
			}
		}
	}
	m["engine.analyze_ms"] = mean(analyze)
	m["engine.unroll_ms"] = mean(unrollT)
	m["engine.schedule_ms"] = mean(schedule)
	m["engine.validate_ms"] = mean(validate)
	m["sched.attempts"] = mean(attempts)
	m["engine.portfolio_waste"] = share(float64(lost), float64(cands))
}

// iiOverMII is the mean achieved II over its lower bound.
func iiOverMII(rs []*core.Result) float64 {
	var xs []float64
	for _, r := range rs {
		if r.Schedule.MinII > 0 {
			xs = append(xs, float64(r.Schedule.II)/float64(r.Schedule.MinII))
		}
	}
	return mean(xs)
}
