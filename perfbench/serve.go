package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/wire"
)

// serveShape is one service workload: its corpus, request mix,
// deployment and rate ladder.
type serveShape struct {
	name, why string
	// spec generates the corpus (Count and Seed are filled per run).
	spec       loadgen.Spec
	machines   []string
	strategies []string
	// loops is the corpus size of a keyed workload, whose requests
	// cycle over loops × machines; 0 makes every request a fresh loop
	// (the corpus then holds one loop per planned request).
	loops int
	// warm is the number of warm-up requests of an unkeyed workload,
	// on loops of their own; a keyed workload warms every key.
	warm int
	// rates is the ladder (requests per second, ascending); shares
	// split the measured window among its steps; nominal indexes the
	// step whose latencies are reported; limitMS is the p99 limit.
	rates   []float64
	shares  []float64
	nominal int
	limitMS float64
	// batch > 1 mixes batch envelopes of that size into bfrac of the
	// dispatches.
	batch int
	bfrac float64
	// cacheBytes is each daemon's cache budget (0 = schedd default);
	// replicas > 1 puts a schedrouter in front of that many daemons
	// federated with -peers.
	cacheBytes int64
	replicas   int
	salt       uint64
}

// inputs is one run's generated workload input.
type inputs struct {
	sh    *serveShape
	loops []*corpus.Loop
	// planned is the number of timed requests (unkeyed workloads).
	planned int
}

// plannedRequests is how many requests the ladder offers in a window.
func (sh *serveShape) plannedRequests(window time.Duration) int {
	n := 0
	for i, r := range sh.rates {
		n += int(r*(time.Duration(float64(window)*sh.shares[i])).Seconds() + 0.5)
	}
	return n
}

// makeInputs generates the corpus from the seed: the same seed gives
// byte-identical loops.
func (sh *serveShape) makeInputs(seed int64, window time.Duration) (*inputs, error) {
	spec := sh.spec
	spec.Seed = uint64(seed)*0x9E3779B97F4A7C15 ^ sh.salt
	in := &inputs{sh: sh}
	if sh.loops > 0 {
		spec.Count = sh.loops
	} else {
		in.planned = sh.plannedRequests(window)
		spec.Count = in.planned + sh.warm
	}
	loops, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	in.loops = loops
	return in, nil
}

// keys is the number of distinct requests of a keyed workload.
func (in *inputs) keys() int { return len(in.loops) * len(in.sh.machines) }

// request builds timed request i (or warm-up request i past the end of
// an unkeyed workload's timed range).
func (in *inputs) request(i int) wire.CompileRequest {
	sh := in.sh
	m := len(sh.machines)
	var l *corpus.Loop
	var machineRef, strat string
	if sh.loops > 0 {
		k := i % in.keys()
		l, machineRef = in.loops[k/m], sh.machines[k%m]
		strat = sh.strategies[(i/in.keys())%len(sh.strategies)]
	} else {
		l, machineRef = in.loops[i], sh.machines[i%m]
		strat = sh.strategies[(i/m)%len(sh.strategies)]
	}
	return wire.CompileRequest{V: wire.Version, Loop: l, MachineRef: machineRef, Options: &wire.Options{Strategy: strat}}
}

// warmIndices are the requests setup sends before timing.
func (in *inputs) warmIndices() []int {
	var idx []int
	if in.sh.loops > 0 {
		for i := 0; i < in.keys(); i++ {
			idx = append(idx, i)
		}
	} else {
		for i := 0; i < in.sh.warm; i++ {
			idx = append(idx, in.planned+i)
		}
	}
	return idx
}

// serveKey identifies a compile across the wire: a loop's content
// fingerprint, the machine and the canonical strategy.
type serveKey struct{ fp, machine, strat string }

func keyOf(r *wire.CompileRequest) serveKey {
	return serveKey{r.Loop.Graph.Fingerprint(), r.MachineRef, engine.CanonicalStrategy(r.Options.Strategy)}
}

// deployment is the service under test: daemon processes, or (traced
// runs) the same servers mounted in-process.
type deployment struct {
	url     string
	daemons []*daemon
	// in-process only:
	servers  []*service.Server
	urls     []string
	router   *cluster.Router
	https    []*http.Server
	serving  sync.WaitGroup
	rtTrans  *transport
	compiles chan *engine.Telemetry
}

func (sh *serveShape) daemonArgs(self string, peers []string) []string {
	args := []string{}
	if sh.cacheBytes > 0 {
		args = append(args, "-cache-bytes", fmt.Sprint(sh.cacheBytes))
	}
	if len(peers) > 1 {
		args = append(args, "-peers", strings.Join(peers, ","), "-peer-self", self)
	}
	return args
}

// bootProcesses starts schedd (and schedrouter) processes.
func (sh *serveShape) bootProcesses(e *env) (*deployment, error) {
	n := max(1, sh.replicas)
	addrs := make([]string, n)
	urls := make([]string, n)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i], urls[i] = a, "http://"+a
	}
	dep := &deployment{}
	for i := range addrs {
		d, err := startDaemon(e, fmt.Sprintf("%s-schedd%d", sh.name, i), "schedd", addrs[i], sh.daemonArgs(urls[i], urls)...)
		if err != nil {
			_ = stopAll(dep.daemons) // the boot error is the one to report
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
	}
	dep.url = urls[0]
	if sh.replicas > 1 {
		reps := make([]string, n)
		for i, u := range urls {
			reps[i] = fmt.Sprintf("r%d=%s", i, u)
		}
		ra, err := freeAddr()
		if err != nil {
			_ = stopAll(dep.daemons) // the boot error is the one to report
			return nil, err
		}
		d, err := startDaemon(e, sh.name+"-schedrouter", "schedrouter", ra,
			"-replicas", strings.Join(reps, ","), "-probe-interval", "1s")
		if err != nil {
			_ = stopAll(dep.daemons) // the boot error is the one to report
			return nil, err
		}
		dep.daemons = append(dep.daemons, d)
		dep.url = d.url
	}
	return dep, nil
}

// bootInProcess mounts the same servers (service.Server, and a
// cluster.Router with federated peers) in this process, with a span
// around each handler and a traced compile function.
func (sh *serveShape) bootInProcess(ctx context.Context, e *env, tr *tracer) (dep *deployment, err error) {
	n := max(1, sh.replicas)
	dep = &deployment{compiles: make(chan *engine.Telemetry, 1<<16)} // telemetry of one run's compiles; overflow is dropped
	var lns []net.Listener
	defer func() {
		if err != nil {
			for _, ln := range lns[len(dep.https):] {
				ln.Close()
			}
			_ = dep.stop() // the boot error is the one to report
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		dep.urls = append(dep.urls, "http://"+ln.Addr().String())
	}
	for i := range dep.urls {
		srv := service.New(service.Config{
			Workers:    e.procs,
			CacheBytes: sh.cacheBytes,
			Compile:    tracedCompile(tr, dep.compiles),
		})
		if n > 1 {
			pl, err := cluster.NewPeerLookup(cluster.PeerConfig{Self: dep.urls[i], Peers: dep.urls})
			if err != nil {
				return nil, err
			}
			srv.Pipeline().SetPeerLookup(pl.Func())
		}
		dep.servers = append(dep.servers, srv)
		dep.serve(lns[i], traceHandler(tr, "service.handler", srv.Handler()))
	}
	dep.url = dep.urls[0]
	if n > 1 {
		reps := make([]cluster.Replica, n)
		for i, u := range dep.urls {
			reps[i] = cluster.Replica{Name: fmt.Sprintf("r%d", i), URL: u}
		}
		dep.rtTrans = newTransport(2 * e.procs)
		rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: reps, HTTP: &http.Client{Transport: dep.rtTrans}})
		if err != nil {
			return nil, err
		}
		rt.Probe(ctx)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		dep.router = rt
		dep.url = "http://" + ln.Addr().String()
		dep.serve(ln, traceHandler(tr, "router.handler", rt.Handler()))
	}
	return dep, nil
}

func (dep *deployment) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	dep.https = append(dep.https, hs)
	dep.serving.Add(1)
	go func() {
		defer dep.serving.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed at shutdown
	}()
}

// stop shuts the deployment down and waits for every process or
// server goroutine to end.
func (dep *deployment) stop() error {
	if dep.daemons != nil {
		return stopAll(dep.daemons)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i := len(dep.https) - 1; i >= 0; i-- {
		if err := dep.https[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	dep.serving.Wait()
	if dep.rtTrans != nil {
		dep.rtTrans.close()
	}
	return errors.Join(errs...)
}

// peakRSS sums the daemons' peak resident sets.
func (dep *deployment) peakRSS() (float64, error) {
	sum := 0.0
	for _, d := range dep.daemons {
		v, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// tracedCompile is the in-process servers' compile function: the
// pipeline's default (core.Compile with the unroll_all fallback)
// through the traced engines, with a span under the service handler
// serving the request that caused it.
func tracedCompile(tr *tracer, sink chan<- *engine.Telemetry) pipeline.CompileFunc {
	return func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		ref := tr.lookup(serveKey{l.Graph.Fingerprint(), cfg.Name, engine.CanonicalStrategy(opts.Strategy.String())})
		if h := tr.handler(ref.req); h.t != nil {
			ref = h
		}
		sp := ref.child("engine.compile")
		res, err := referenceCompile(withSpan(context.Background(), sp), l, cfg, tracedOptions(opts))
		sp.end()
		if err == nil && tr.on.Load() {
			select {
			case sink <- res.Stages:
			default:
			}
		}
		return res, err
	}
}

// warmUp sends the warm-up requests, procs at a time.
func warmUp(ctx context.Context, c *client.Client, in *inputs, procs int) error {
	idx := in.warmIndices()
	errs := make([]error, len(idx))
	parallel(len(idx), procs, func(k int) {
		req := in.request(idx[k])
		_, err := c.Compile(ctx, &req)
		var werr *wire.Error
		if errors.As(err, &werr) && werr.Code == wire.CodeUnschedulable {
			err = nil
		}
		errs[k] = err
	})
	return errors.Join(errs...)
}

// outcome classes of one served request, beyond outcomeOK,
// outcomeUnschedulable and outcomeWrong.
const (
	outcome429 = iota + outcomeWrong + 1
	outcome504
	outcomeError
	outcomeTransport
)

var outcomeNames = map[int]string{
	outcomeOK: "ok", outcomeUnschedulable: "unschedulable", outcomeWrong: "wrong_output",
	outcome429: "429", outcome504: "504", outcomeError: "other_error", outcomeTransport: "transport_error",
}

// served is one answered request.
type served struct {
	i   int
	res *wire.Result
	err error
}

// checked is the verification verdict of the requests of a run.
type checked struct {
	class []int // per served request
	// okRes holds the decoded schedule of each distinct ok key.
	okRes map[serveKey]*core.Result
	ref   map[serveKey]*core.Result
	ipc   float64
	words float64
}

func classifyErr(err error) int {
	var werr *wire.Error
	if !errors.As(err, &werr) {
		return outcomeTransport
	}
	switch werr.Code {
	case wire.CodeUnschedulable:
		return outcomeUnschedulable
	case wire.CodeOverCapacity:
		return outcome429
	case wire.CodeDeadlineExceeded:
		return outcome504
	}
	return outcomeError
}

// refused reports a request that got no answer to check: it failed in
// transit or the server turned it away.
func refused(err error) bool { return err != nil && sysFailure(classifyErr(err)) }

// decodeServed rebuilds a served result against the request's loop.
func decodeServed(req *wire.CompileRequest, res *wire.Result) (*core.Result, machine.Config, error) {
	cfg, ok := machine.ConfigByName(req.MachineRef)
	if !ok {
		return nil, cfg, fmt.Errorf("unknown machine %q", req.MachineRef)
	}
	g := req.Loop.Graph
	if res.Factor > 1 {
		g = g.Unroll(res.Factor)
	}
	got, err := res.Core(g, cfg)
	return got, cfg, err
}

// verify checks every served answer.  Each distinct key is compiled
// in-process by the reference path and its served schedule decoded,
// compared and simulated; every other answer for that key must carry
// the same schedule.  It also derives the quality metrics over the
// distinct ok keys.
func verify(rep *report, in *inputs, all []served, procs int) *checked {
	ck := &checked{class: make([]int, len(all)), okRes: map[serveKey]*core.Result{}, ref: map[serveKey]*core.Result{}}
	// Each key is judged on its first answer, or its first request when
	// every request for it failed in transit or was refused.
	first := map[serveKey]int{}
	var keys []serveKey
	for k, s := range all {
		req := in.request(s.i)
		key := keyOf(&req)
		j, seen := first[key]
		if !seen {
			keys = append(keys, key)
		}
		if !seen || (refused(all[j].err) && !refused(s.err)) {
			first[key] = k
		}
	}
	order := make([]int, len(keys))
	for j, key := range keys {
		order[j] = first[key]
	}
	type verdict struct {
		class    int
		msg      string
		got, ref *core.Result
		rel      float64
		sig      uint64
	}
	vs := make([]verdict, len(order))
	parallel(len(order), procs, func(j int) {
		s := all[order[j]]
		req := in.request(s.i)
		v := &vs[j]
		if s.err != nil && classifyErr(s.err) != outcomeUnschedulable {
			v.class = classifyErr(s.err)
			v.msg = s.err.Error()
			return
		}
		opts, werr := req.Options.Core()
		cfg, _ := machine.ConfigByName(req.MachineRef)
		if werr != nil {
			v.class, v.msg = outcomeWrong, werr.Error()
			return
		}
		ref, refErr := referenceCompile(context.Background(), req.Loop, &cfg, opts)
		var got *core.Result
		var gotErr error = s.err
		if s.res != nil {
			var err error
			if got, _, err = decodeServed(&req, s.res); err != nil {
				v.class, v.msg = outcomeWrong, "undecodable result: "+err.Error()
				return
			}
		}
		if err := checkAgainstReference(got, gotErr, ref, refErr); err != nil {
			v.class, v.msg = outcomeWrong, err.Error()
			return
		}
		if gotErr != nil {
			v.class = outcomeUnschedulable
			return
		}
		v.class, v.got, v.ref, v.sig = outcomeOK, got, ref, schedSig(got)
		if cfg.Clustered() {
			uni := machine.Unified()
			base, err := referenceCompile(context.Background(), req.Loop, &uni, core.Options{})
			if err == nil {
				v.rel = float64(loopCycles(req.Loop, base)) / float64(loopCycles(req.Loop, got))
			}
		}
	})
	var rels []float64
	keyClass := map[serveKey]*verdict{}
	for j, k := range order {
		req := in.request(all[k].i)
		key := keyOf(&req)
		v := &vs[j]
		keyClass[key] = v
		if v.class == outcomeOK {
			ck.okRes[key], ck.ref[key] = v.got, v.ref
			ck.words += float64(codeWords(v.got))
			if v.rel > 0 {
				rels = append(rels, v.rel)
			}
		} else if v.class != outcomeUnschedulable {
			rep.problem("%s: %s on %s (%s): %s: %s", in.sh.name, req.Loop.Graph.Name, req.MachineRef,
				req.Options.Strategy, outcomeNames[v.class], v.msg)
		}
	}
	ck.ipc = stats.GeoMean(rels)
	for k, s := range all {
		req := in.request(s.i)
		v := keyClass[keyOf(&req)]
		switch {
		case s.err != nil:
			c := classifyErr(s.err)
			if c == outcomeUnschedulable && v.class != outcomeUnschedulable {
				c = outcomeWrong
			}
			ck.class[k] = c
		case v.class != outcomeOK:
			ck.class[k] = outcomeWrong
		default:
			got, _, err := decodeServed(&req, s.res)
			if err != nil || schedSig(got) != v.sig {
				ck.class[k] = outcomeWrong
				rep.problem("%s: %s on %s: answer differs from the key's first answer", in.sh.name, req.Loop.Graph.Name, req.MachineRef)
			} else {
				ck.class[k] = outcomeOK
			}
		}
	}
	return ck
}

// collect flattens the steps' answers.
func collect(steps ...*step) []served {
	var all []served
	for _, st := range steps {
		for _, d := range st.ds {
			for k := 0; k < d.n; k++ {
				all = append(all, served{i: d.first + k, res: d.res[k], err: d.errs[k]})
			}
		}
	}
	return all
}

// sysFailure reports a class that is the system's fault under load
// (everything but ok, a confirmed unschedulable loop, and wrong output,
// which is counted but is no load effect).
func sysFailure(c int) bool {
	return c == outcome429 || c == outcome504 || c == outcomeError || c == outcomeTransport
}

// maxGenSlipMS is how late the generator may queue a dispatch before
// the run is invalid: beyond it the offered load was not the planned
// schedule.
const maxGenSlipMS = 25

// setUp generates the inputs, boots the daemons and warms them.
func (sh *serveShape) setUp(ctx context.Context, e *env, tp *transport) (*inputs, *deployment, error) {
	in, err := sh.makeInputs(e.seed, e.seconds)
	if err != nil {
		return nil, nil, err
	}
	dep, err := sh.bootProcesses(e)
	if err != nil {
		return nil, nil, err
	}
	c, err := newClient(dep.url, tp)
	if err == nil {
		err = warmUp(ctx, c, in, e.procs)
	}
	if err != nil {
		_ = dep.stop() // the warm-up error is the one to report
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, dep, nil
}

// checkGenerator fails the run when the generator itself fell behind
// its schedule in any step.
func checkGenerator(steps ...*step) error {
	for _, st := range steps {
		if slip := percentile(sortedCopy(st.genLateness()), 0.99); slip > maxGenSlipMS {
			return &errInvalidRun{fmt.Sprintf("generator queued dispatches %.1f ms late (p99) at %.0f/s", slip, st.rate)}
		}
	}
	return nil
}

// runServe runs a service workload.
func runServe(ctx context.Context, e *env, sh *serveShape) (*report, error) {
	if e.trace {
		return runServeTraced(ctx, e, sh)
	}
	rep := newReport()
	tp := newTransport(e.procs)
	defer tp.close()
	var in *inputs
	var dep *deployment
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if dep != nil {
			if err := dep.stop(); err != nil {
				return nil, err
			}
			tp.close()
		}
		t0 := time.Now()
		var err error
		if in, dep, err = sh.setUp(ctx, e, tp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = median(setups)
	steps, rss, err := sh.measure(ctx, e, rep, in, dep, tp)
	if stopErr := dep.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	if err := checkGenerator(steps...); err != nil {
		return nil, err
	}

	all := collect(steps...)
	ck := verify(rep, in, all, e.procs)
	classes := map[int]int{}
	for _, c := range ck.class {
		classes[c]++
	}
	rep.attempted = int64(len(all))
	rep.failed = int64(len(all) - classes[outcomeOK] - classes[outcomeUnschedulable])
	serveLadder(rep, sh, steps, ck)
	rep.metrics["ok_share"] = share(float64(classes[outcomeOK]), float64(len(all)))
	rep.metrics["ipc_rel_geomean"] = ck.ipc
	rep.metrics["code_words"] = ck.words
	rep.metrics["peak_rss_mb"] = rss
	var names []string
	for c := outcomeOK; c <= outcomeTransport; c++ {
		names = append(names, fmt.Sprintf("%s=%d", outcomeNames[c], classes[c]))
	}
	rep.line("%s: outcomes %s; fail_share %.4f", sh.name, strings.Join(names, " "),
		share(float64(len(all)-classes[outcomeOK]), float64(len(all))))
	return rep, nil
}

// measure runs the ladder against a warmed deployment and reads the
// daemons' counters and peak memory before they stop.
func (sh *serveShape) measure(ctx context.Context, e *env, rep *report, in *inputs, dep *deployment, tp *transport) ([]*step, float64, error) {
	c, err := newClient(dep.url, tp)
	if err != nil {
		return nil, 0, err
	}
	g := &genConfig{c: c, procs: e.procs, batch: sh.batch, bfrac: sh.bfrac,
		rng: rand.New(rand.NewSource(e.seed)), in: in}
	before, err := c.Stats(ctx)
	if err != nil {
		return nil, 0, err
	}
	var steps []*step
	next := 0
	for i, rate := range sh.rates {
		st := runStep(ctx, g, rate, time.Duration(float64(e.seconds)*sh.shares[i]), next)
		next += st.requests()
		steps = append(steps, st)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	after, err := c.Stats(ctx)
	if err != nil {
		return nil, 0, err
	}
	ps := after.Pipeline
	rep.line("%s: server hits %d, misses %d, evictions %d, dedup joins %d over the window",
		sh.name, ps.Hits-before.Pipeline.Hits, ps.Misses-before.Pipeline.Misses,
		ps.Evictions-before.Pipeline.Evictions, ps.DedupJoins-before.Pipeline.DedupJoins)
	if sh.replicas > 1 {
		for _, d := range dep.daemons[:sh.replicas] {
			rc, err := newClient(d.url, tp)
			if err != nil {
				return nil, 0, err
			}
			s, err := rc.Stats(ctx)
			if err != nil {
				return nil, 0, err
			}
			rep.line("%s: %s holds %d entries, %d bytes (budget %d); %d hits, %d misses, %d evictions, %d peer hits since boot",
				sh.name, d.name, s.Pipeline.CachedEntries, s.Pipeline.CachedBytes, sh.cacheBytes,
				s.Pipeline.Hits, s.Pipeline.Misses, s.Pipeline.Evictions, s.Pipeline.PeerHits)
		}
	}
	rss, err := dep.peakRSS()
	return steps, rss, err
}

// serveLadder evaluates every ladder step and sets the latency and
// goodput metrics: latencies at the nominal step, goodput at the
// highest step that meets the latency limit without more system
// failures than the lowest step and without a growing backlog.
func serveLadder(rep *report, sh *serveShape, steps []*step, ck *checked) {
	off := 0
	var baseFail float64
	best := -1
	for i, st := range steps {
		lat, win := st.latencies()
		n := len(lat)
		var ok, fails int
		slo := make([]float64, n)
		for k := range lat {
			c := ck.class[off+k]
			slo[k] = lat[k]
			if sysFailure(c) {
				fails++
				slo[k] = math.Inf(1)
			}
			if c == outcomeOK {
				ok++
			}
		}
		off += n
		failShare := share(float64(fails), float64(n))
		if i == 0 {
			baseFail = failShare
		}
		p99 := windowP99(slo, win)
		drift := st.backlogGrowth()
		grows := drift > sh.limitMS/4
		meets := p99 <= sh.limitMS && failShare <= baseFail && !grows
		goodput := float64(ok) / st.elapsed().Seconds()
		if meets {
			best = i
			rep.metrics["goodput_per_s"] = goodput
		}
		sorted := sortedCopy(lat)
		rep.line("%s: step %5.0f/s  %5d requests  p50 %8.3f ms  p99 %8.3f ms (pooled %8.3f)  goodput %8.2f/s  system failures %.4f  backlog drift %.3f ms  lateness p99 %.3f ms  meets %.0f ms limit: %v",
			sh.name, st.rate, n, percentile(sorted, 0.5), windowP99(lat, win), percentile(sorted, 0.99), goodput, failShare,
			drift, percentile(sortedCopy(st.lateness()), 0.99), sh.limitMS, meets)
		if i == sh.nominal {
			rep.metrics["latency_p50_ms"] = percentile(sorted, 0.50)
		}
	}
	if best < 0 {
		rep.metrics["goodput_per_s"] = 0
		rep.line("%s: no ladder step met the %.0f ms p99 limit", sh.name, sh.limitMS)
	} else {
		rep.line("%s: slo_qps: highest step meeting the limit is %.0f/s", sh.name, sh.rates[best])
	}
}

// windowP99 is the median, over the one-second windows of a step (by
// due time), of each window's p99.  An isolated stall of the shared
// host moves one window's figure, not the step's; a slower tail in
// every window moves it all the same.
func windowP99(lat []float64, win []int) float64 {
	groups := map[int][]float64{}
	for k, w := range win {
		groups[w] = append(groups[w], lat[k])
	}
	var p99s []float64
	for _, xs := range groups {
		p99s = append(p99s, percentile(sortedCopy(xs), 0.99))
	}
	return median(p99s)
}

// runServeTraced is the traced run of a service workload: the servers
// are mounted in-process, the nominal rate runs once untraced and once
// traced through the same code, and the per-layer metrics come from
// the traced half.
func runServeTraced(ctx context.Context, e *env, sh *serveShape) (_ *report, err error) {
	rep := newReport()
	tr := newTracer()
	tr.on.Store(false)
	tracedOptions(core.Options{})
	in, err := sh.makeInputs(e.seed, e.seconds)
	if err != nil {
		return nil, err
	}
	dep, err := sh.bootInProcess(ctx, e, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := dep.stop(); err == nil && stopErr != nil {
			err = stopErr
		}
	}()
	tp := newTransport(e.procs)
	defer tp.close()
	c, err := newClient(dep.url, tp)
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, c, in, e.procs); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	g := &genConfig{c: c, procs: e.procs, tr: tr, batch: sh.batch, bfrac: sh.bfrac,
		rng: rand.New(rand.NewSource(e.seed)), in: in}
	rate := sh.rates[sh.nominal]
	half := e.seconds / 2
	plain := runStep(ctx, g, rate, half, 0)

	// The traced half.
	before := pipeStats(dep)
	stBefore, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	trips0, req0, rsp0 := tp.trips.Load(), tp.reqBytes.Load(), tp.rspBytes.Load()
	var rehash0 int64
	if dep.router != nil {
		rehash0 = dep.router.Rehashes()
	}
	for len(dep.compiles) > 0 {
		<-dep.compiles
	}
	tr.on.Store(true)
	traced := runStep(ctx, g, rate, half, plain.requests())
	tr.on.Store(false)
	trips := tp.trips.Load() - trips0
	reqBytes, rspBytes := tp.reqBytes.Load()-req0, tp.rspBytes.Load()-rsp0
	after := pipeStats(dep)
	stAfter, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkGenerator(plain, traced); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	if err := writeSpans(spanFile(e, sh.name), spans); err != nil {
		return nil, err
	}

	all := collect(plain, traced)
	ck := verify(rep, in, all, e.procs)
	for _, c := range ck.class {
		if c != outcomeOK && c != outcomeUnschedulable {
			rep.failed++
		}
	}
	rep.attempted = int64(len(all))

	m := rep.metrics
	lad := attribute(spans)
	var e2e time.Duration
	var exch []float64
	for _, d := range traced.ds {
		e2e += d.done.Sub(d.sent)
		exch = append(exch, ms(d.done.Sub(d.sent)))
	}
	var plainExch []float64
	for _, d := range plain.ds {
		plainExch = append(plainExch, ms(d.done.Sub(d.sent)))
	}
	m["trace.op_ms"] = mean(exch)
	m["trace.unattributed_ms"] = lad.report(rep, e2e)
	m["trace.overhead_share"] = share(median(exch), median(plainExch)) - 1
	m["client.transport_ms"] = lad.selfPerCallMS("client.compile")
	m["service.handler_ms"] = lad.meanBusyMS("service.handler")
	m["service.self_ms"] = lad.selfPerCallMS("service.handler")
	m["cluster.router_hop_ms"] = lad.selfPerCallMS("router.handler")
	m["engine.self_ms"] = lad.selfPerCallMS("engine.compile")
	m["order.sms_ms"] = lad.meanBusyMS("order.sms")
	m["sched.schedule_ms"] = lad.meanBusyMS("sched.schedule")
	m["assign.ne_ms"] = lad.meanBusyMS("assign.ne")
	m["pipeline.self_ms"] = 0 // inside the handler; no span separates it

	var stages []*engine.Telemetry
	for len(dep.compiles) > 0 {
		stages = append(stages, <-dep.compiles)
	}
	stageMetrics(m, stages)
	tracedAll := collect(traced)
	tracedClass := ck.class[len(all)-len(tracedAll):]
	var okRes []*core.Result
	var unsched, unrollable, unrolled int
	for k, s := range tracedAll {
		switch tracedClass[k] {
		case outcomeUnschedulable:
			unsched++
		case outcomeOK:
			req := in.request(s.i)
			got := ck.okRes[keyOf(&req)]
			okRes = append(okRes, got)
			if req.Options.Strategy != string(core.NoUnroll) {
				unrollable++
				if got.Factor > 1 {
					unrolled++
				}
			}
		}
	}
	m["sched.ii_over_mii"] = iiOverMII(okRes)
	m["sched.unschedulable"] = float64(unsched)
	m["unroll.unrolled_share"] = share(float64(unrolled), float64(unrollable))
	compiles := after.Compilations - before.Compilations
	lookups := after.Hits + after.Misses - before.Hits - before.Misses
	m["pipeline.hit_rate"] = share(float64(after.Hits-before.Hits), float64(lookups))
	m["pipeline.evictions"] = float64(after.Evictions - before.Evictions)
	m["pipeline.dedup_joins"] = float64(after.DedupJoins - before.DedupJoins)
	m["pipeline.fallbacks"] = float64(after.Fallbacks - before.Fallbacks)
	m["pipeline.compile_ms"] = share(ms(after.CompileTime-before.CompileTime), float64(compiles))
	m["runtime.alloc_bytes_per_compile"] = 0 // measured on paper-grid, where only compiles allocate
	m["service.rejected"] = float64(stAfter.Service.Rejected - stBefore.Service.Rejected)
	m["service.deadlines"] = float64(stAfter.Service.Deadlines - stBefore.Service.Deadlines)
	m["client.retries"] = float64(trips - int64(len(traced.ds)))
	m["wire.request_bytes"] = share(float64(reqBytes), float64(trips))
	m["wire.response_bytes"] = share(float64(rspBytes), float64(trips))
	m["loadgen.lateness_p99_ms"] = percentile(sortedCopy(traced.lateness()), 0.99)
	last := traced.ds[len(traced.ds)-1]
	m["loadgen.sent_share"] = share(float64(traced.requests())/last.sent.Sub(traced.start).Seconds(), rate)
	if dep.router != nil {
		m["cluster.hit_rate"] = m["pipeline.hit_rate"]
		m["cluster.failovers"] = float64(dep.router.Rehashes() - rehash0)
		m["cluster.peer_fetch_ms"] = peerFetchProbe(ctx, dep)
	} else {
		m["cluster.hit_rate"], m["cluster.failovers"], m["cluster.peer_fetch_ms"] = 0, 0, 0
	}
	wireProbes(m, in, tracedAll, ck)
	m["pipeline.hit_us"] = hitProbe(dep, in, tracedAll)
	m["ddg.unroll_ms"] = 0 // the services unroll inside the engine (engine.unroll_ms)
	m["unroll.selective_ms"] = 0
	return rep, nil
}

// pipeStats sums the in-process servers' pipeline counters.
func pipeStats(dep *deployment) pipeline.Stats {
	var s pipeline.Stats
	for _, srv := range dep.servers {
		x := srv.Pipeline().Stats()
		s.Hits += x.Hits
		s.Misses += x.Misses
		s.DedupJoins += x.DedupJoins
		s.Compilations += x.Compilations
		s.Fallbacks += x.Fallbacks
		s.Evictions += x.Evictions
		s.CompileTime += x.CompileTime
	}
	return s
}

// wireProbes times the wire layer on the exact bytes of the traced
// requests: strict decode of the request, the fingerprint of the
// decoded loop, and the encode of the verified result.
func wireProbes(m map[string]float64, in *inputs, all []served, ck *checked) {
	const maxProbes = 400
	var dec, fp, enc []float64
	for k, s := range all {
		if k >= maxProbes {
			break
		}
		req := in.request(s.i)
		b, err := json.Marshal(&req)
		if err != nil {
			continue
		}
		var got wire.CompileRequest
		t := time.Now()
		if err := wire.DecodeStrict(bytes.NewReader(b), &got); err != nil {
			continue
		}
		dec = append(dec, us(time.Since(t)))
		t = time.Now()
		got.Loop.Graph.Fingerprint()
		fp = append(fp, us(time.Since(t)))
		if ref := ck.ref[keyOf(&req)]; ref != nil {
			t = time.Now()
			_, _ = json.Marshal(wire.CompileResponse{V: wire.Version, Result: wire.FromResult(ref)}) // timing only
			enc = append(enc, us(time.Since(t)))
		}
	}
	m["wire.decode_us"] = mean(dec)
	m["ddg.fingerprint_us"] = mean(fp)
	m["wire.encode_us"] = mean(enc)
}

// hitProbe times Pipeline.Compile on keys resident in the in-process
// servers' caches, counting only calls that were hits.
func hitProbe(dep *deployment, in *inputs, all []served) float64 {
	var ts []float64
	for k := len(all) - 1; k >= 0 && len(ts) < 200; k-- {
		req := in.request(all[k].i)
		opts, werr := req.Options.Core()
		cfg, ok := machine.ConfigByName(req.MachineRef)
		if werr != nil || !ok {
			continue
		}
		for _, srv := range dep.servers {
			p := srv.Pipeline()
			h0 := p.Stats().Hits
			t := time.Now()
			_, _ = p.Compile(pipeline.Request{Loop: req.Loop, Cfg: cfg, Opts: opts}) // hit path timing; outcome already verified
			d := time.Since(t)
			if p.Stats().Hits > h0 {
				ts = append(ts, us(d))
				break
			}
		}
	}
	return mean(ts)
}

// peerFetchProbe times GET /v1/cache/<key> on each replica for keys it
// holds.
func peerFetchProbe(ctx context.Context, dep *deployment) float64 {
	hc := &http.Client{Transport: newTransport(1)}
	var ts []float64
	for i, srv := range dep.servers {
		entries := srv.Pipeline().Export()
		for k := 0; k < len(entries) && k < 100; k++ {
			t := time.Now()
			if _, err := cluster.FetchCacheEntry(ctx, hc, dep.urls[i], entries[k].Key); err == nil {
				ts = append(ts, ms(time.Since(t)))
			}
		}
	}
	hc.Transport.(*transport).close()
	return mean(ts)
}
