// Package service is the compile-as-a-service layer: one HTTP front
// end (Front) over the versioned JSON wire format of internal/wire, and
// a small Backend interface behind it.  Server is the local backend,
// pipeline.Pipeline in this process (cmd/schedd is the thin binary
// around it); the cluster router is the remote one (cmd/schedrouter).
//
// Endpoints every front end serves:
//
//	POST /v1/compile   one compilation; wire.CompileRequest in,
//	                   wire.CompileResponse out
//	POST /v1/batch     many compilations; wire.BatchRequest in, NDJSON
//	                   stream of wire.BatchItem out, one line per
//	                   request in completion order
//	GET  /v1/stats     pipeline + service counters (wire.StatsResponse)
//	GET  /v1/capabilities  registered schedulers, unroll policies and
//	                   machine_ref names (wire.CapabilitiesResponse)
//	GET  /healthz      liveness probe (always 200 while the process is up)
//	GET  /readyz       readiness probe (503 once draining begins, or
//	                   while the backend cannot take work)
//
// and the local backend adds:
//
//	GET  /v1/cache/{key}  one completed cache entry as a snapshot row
//	                   (wire.CacheEntry), 404 cache_miss otherwise; the
//	                   peer-federation read used by cluster mode
//	GET  /debug/vars   expvar-style JSON metrics (requests, cache,
//	                   fallbacks, latency histogram)
//
// The front end owns what every backend shares: request-body size caps
// and strict decoding, the version gate, drain (BeginDrain), the
// per-request deadline (the default timeout, or the client's timeout_ms
// clamped to a maximum), the NDJSON batch stream with its per-line
// write deadline and disconnect accounting, and the request counters
// and latency histogram.  The local backend adds what the batch
// pipeline lacks for long-running use: a byte-bounded LRU over the
// compile cache (Config.CacheBytes), admission control with bounded
// queueing — a request beyond MaxInflight waits in a queue of
// QueueDepth and is turned away with 429 once that overflows — and
// per-engine quarantine with degraded fallback.
//
// Error contract: every non-2xx response is a wire.ErrorResponse whose
// code is one of the wire.Code* constants.  Status mapping: malformed
// or invalid input 400, unknown loop_ref/machine_ref 404, oversized
// body 413, unschedulable loop 422, admission rejection 429, draining
// 503, deadline 504.
package service

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// Config tunes a Server.  The zero value serves with the defaults
// below.
type Config struct {
	// Workers sizes the pipeline's batch pool; <= 0 means GOMAXPROCS.
	Workers int
	// CacheBytes bounds the compile cache (pipeline.SetCacheBytes);
	// <= 0 means unbounded.
	CacheBytes int64
	// MaxInflight caps concurrently admitted compilations; <= 0 means
	// 2 x the pipeline's worker count.
	MaxInflight int
	// QueueDepth caps requests waiting for admission beyond MaxInflight;
	// the QueueDepth+1st waiter gets 429.  < 0 means no queue (reject as
	// soon as MaxInflight is busy); 0 means the default (64).
	QueueDepth int
	// MaxBodyBytes caps request bodies; 0 means 8 MiB.
	MaxBodyBytes int64
	// Compile, when non-nil, replaces the pipeline's compile function
	// (tests inject delays, failures and invocation counters here).
	Compile pipeline.CompileFunc
	// Breaker tunes the per-engine quarantine circuit breaker; the
	// zero value uses the engine package's defaults (3 failures in 30s
	// opens, 10s cooldown).
	Breaker engine.BreakerConfig
	// Faults, when non-nil, runs the daemon in chaos mode: the
	// injector wraps the pipeline's compile function and the HTTP
	// handler, and its counters surface in /v1/stats.  Never set in
	// production; schedd only builds one under -faults.
	Faults *faults.Injector
}

// withDefaults resolves the zero values.
func (c Config) withDefaults(workers int) Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * workers
	}
	switch {
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	}
	return c
}

// Server is the local backend: the HTTP scheduling service over one
// pipeline.  Build one with New and mount Handler on an http.Server.
type Server struct {
	cfg   Config
	pipe  *pipeline.Pipeline
	front *Front

	// loops indexes the generated corpus by graph name for loop_ref;
	// machines indexes the Table 1 configurations for machine_ref.  Both
	// are built once: ref resolution is on the per-request hot path.
	loops    map[string]*corpus.Loop
	machines map[string]machine.Config

	// sem holds one slot per admitted compilation; queued counts the
	// waiters beyond it (bounded by cfg.QueueDepth).
	sem    chan struct{}
	queued atomic.Int64

	// quar is the per-engine circuit breaker.
	quar *engine.Quarantine

	m metrics
}

// New builds a Server: pipeline, bounded cache, corpus index and
// admission gates.
func New(cfg Config) *Server {
	pipe := pipeline.New(cfg.Workers)
	cfg = cfg.withDefaults(pipe.Workers())
	if cfg.CacheBytes > 0 {
		pipe.SetCacheBytes(cfg.CacheBytes)
	}
	if cfg.Compile != nil {
		pipe.SetCompile(cfg.Compile)
	}
	// MaxInflight bounds running compiles even after their requesters'
	// deadlines expire: a 504'd request may leave its compile finishing
	// (it lands in the cache), but never an unbounded pile of them.
	pipe.SetMaxConcurrentCompiles(cfg.MaxInflight)
	machines := make(map[string]machine.Config)
	for _, c := range machine.Table1Configs() {
		machines[c.Name] = c
	}
	if cfg.Faults != nil {
		pipe.WrapCompile(cfg.Faults.WrapCompile)
		cfg.Faults.SetEvict(func() { pipe.Purge() })
	}
	s := &Server{
		cfg:      cfg,
		pipe:     pipe,
		loops:    corpus.Index(corpus.SPECfp95()),
		machines: machines,
		sem:      make(chan struct{}, cfg.MaxInflight),
		quar:     engine.NewQuarantine(cfg.Breaker),
	}
	s.front = NewFront(s, cfg.MaxBodyBytes)
	return s
}

// Pipeline exposes the underlying pipeline (stats, tests).
func (s *Server) Pipeline() *pipeline.Pipeline { return s.pipe }

// Quarantine exposes the engine circuit breakers (tests, probes).
func (s *Server) Quarantine() *engine.Quarantine { return s.quar }

// BeginDrain flips the server's front end into drain mode (see
// Front.BeginDrain).
func (s *Server) BeginDrain() { s.front.BeginDrain() }

// Handler returns the shared front end's mux plus the local routes
// (wrapped in the fault-injection middleware when the server runs in
// chaos mode).
func (s *Server) Handler() http.Handler {
	mux := s.front.Mux()
	mux.HandleFunc("GET /v1/cache/{key...}", s.handleCacheGet)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	if s.cfg.Faults != nil {
		return s.cfg.Faults.Middleware(mux)
	}
	return mux
}

// errOverCapacity marks an admission rejection internally.
var errOverCapacity = errors.New("service: over capacity")

// admit claims a compile slot, queueing up to QueueDepth waiters; the
// caller must invoke the returned release.  It fails fast with
// errOverCapacity when the queue is full, or with the context error if
// the deadline lapses while queued.
func (s *Server) admit(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}:
	default:
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			return nil, errOverCapacity
		}
		defer s.queued.Add(-1)
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.m.inflight.Add(1)
	return func() {
		s.m.inflight.Add(-1)
		<-s.sem
	}, nil
}

// resolve maps a wire request onto a pipeline request: loop by ref or
// inline, machine by ref or inline, options parsed and validated.
func (s *Server) resolve(req *wire.CompileRequest) (pipeline.Request, *wire.Error) {
	var out pipeline.Request

	switch {
	case req.LoopRef != "" && req.Loop != nil:
		return out, wire.Errorf(wire.CodeBadRequest, "loop and loop_ref are mutually exclusive")
	case req.LoopRef != "":
		l, ok := s.loops[req.LoopRef]
		if !ok {
			return out, wire.Errorf(wire.CodeUnknownLoop, "unknown loop_ref %q (corpus loops are named bench.loopN)", req.LoopRef)
		}
		out.Loop = l
	case req.Loop != nil:
		if werr := wire.CheckLoop(req.Loop); werr != nil {
			return out, werr
		}
		out.Loop = req.Loop
	default:
		return out, wire.Errorf(wire.CodeBadRequest, "one of loop or loop_ref required")
	}

	switch {
	case req.MachineRef != "" && req.Machine != nil:
		return out, wire.Errorf(wire.CodeBadRequest, "machine and machine_ref are mutually exclusive")
	case req.MachineRef != "":
		cfg, ok := s.machines[req.MachineRef]
		if !ok {
			return out, wire.Errorf(wire.CodeUnknownMachine, "unknown machine_ref %q (Table 1 names: unified, 2-cluster/B1/L1, ...)", req.MachineRef)
		}
		out.Cfg = cfg
	case req.Machine != nil:
		cfg, werr := req.Machine.Config()
		if werr != nil {
			return out, werr
		}
		out.Cfg = cfg
	default:
		return out, wire.Errorf(wire.CodeBadRequest, "one of machine or machine_ref required")
	}

	opts, werr := req.Options.Core()
	if werr != nil {
		return out, werr
	}
	out.Opts = opts

	// The per-knob caps compose: bound the graph the scheduler actually
	// sees (nodes x unroll factor) so a large-but-legal loop cannot be
	// multiplied into an hours-long compile that pins a slot.  The
	// registered policy itself reports its worst-case factor, so a
	// "sweep:16" request is bounded by 16 no matter what Factor says.
	if f := core.MaxUnrollFactor(&opts, &out.Cfg); f > 1 {
		if n := out.Loop.Graph.NumNodes() * f; n > wire.MaxWireUnrolledNodes {
			return out, wire.Errorf(wire.CodeInvalidOptions,
				"unrolled size %d nodes (%d x factor %d) over the %d cap",
				n, out.Loop.Graph.NumNodes(), f, wire.MaxWireUnrolledNodes)
		}
	}
	return out, nil
}

// Compile implements Backend: resolution, admission, the engine
// quarantine gate and the pipeline, every failure a *wire.Error except
// context expiry, which goes back bare for the front end to map.
func (s *Server) Compile(ctx context.Context, req *wire.CompileRequest) (*wire.Result, error) {
	preq, werr := s.resolve(req)
	if werr != nil {
		return nil, werr
	}
	release, err := s.admit(ctx)
	if err != nil {
		if errors.Is(err, errOverCapacity) {
			s.m.rejected.Add(1)
			werr := wire.Errorf(wire.CodeOverCapacity, "compile queue full (%d in flight, %d queued)", s.cfg.MaxInflight, s.cfg.QueueDepth)
			werr.RetryAfterMS = s.rejectRetryHint().Milliseconds()
			return nil, werr
		}
		return nil, err
	}
	defer release()

	// Engine quarantine gate.  A quarantined engine refuses (with the
	// cooldown remaining as the retry hint) unless the request allows
	// degraded service, in which case the compile falls back to the
	// baseline (bsa, no_unroll); sustained queue pressure sheds
	// allow_degraded requests onto the same cheap path.
	eng := engine.CanonicalScheduler(preq.Opts.Scheduler.String())
	degradedReason := ""
	if ok, state, retry := s.quar.Admit(eng); !ok {
		if !req.AllowDegraded {
			s.m.quarantined.Add(1)
			werr := wire.Errorf(wire.CodeEngineQuarantined,
				"engine %q quarantined (%s); retry later or set allow_degraded", eng, state)
			werr.RetryAfterMS = max(retry.Milliseconds(), 1)
			return nil, werr
		}
		degradedReason = fmt.Sprintf("engine %s quarantined (%s)", eng, state)
	} else if req.AllowDegraded && s.shedding() {
		degradedReason = "load_shed"
	}
	runEng := eng
	if degradedReason != "" {
		preq.Opts = core.Options{} // bsa, no_unroll
		runEng = engine.CanonicalScheduler("")
		s.m.degraded.Add(1)
	}

	res, err := s.pipe.CompileCtx(ctx, preq)
	if err != nil {
		var perr *engine.PanicError
		if errors.As(err, &perr) {
			s.quar.ReportFailure(runEng, engine.FailPanic)
			return nil, wire.Errorf(wire.CodeEnginePanic, "%v", perr)
		}
		if cerr := ctx.Err(); cerr != nil {
			if errors.Is(cerr, context.DeadlineExceeded) {
				s.quar.ReportFailure(runEng, engine.FailTimeout)
			}
			return nil, cerr
		}
		// The engine completed, just without a schedule: deterministic
		// rejections are not engine sickness, so they count as breaker
		// successes (a half-open probe that answers is a healthy one).
		s.quar.ReportSuccess(runEng)
		// Typed engine rejections (an option the wire caps let through
		// but the engine boundary refuses) are client errors, not
		// unschedulable loops.
		var oerr *core.OptionsError
		if errors.As(err, &oerr) {
			return nil, wire.Errorf(wire.CodeInvalidOptions, "%v", err)
		}
		// Transient failures (fault injection, anything marked
		// engine.Transient) are retry-safe and must not read as the
		// deterministic "this loop cannot be scheduled" verdict.
		if engine.Transient(err) {
			return nil, wire.Errorf(wire.CodeInternal, "transient compile failure: %v", err)
		}
		return nil, wire.Errorf(wire.CodeUnschedulable, "%v", err)
	}
	s.quar.ReportSuccess(runEng)
	wres := wire.FromResult(res)
	if degradedReason != "" {
		wres.Degraded = true
		wres.DegradedReason = degradedReason
	}
	return wres, nil
}

// rejectRetryHint derives the 429 Retry-After from queue occupancy: an
// empty queue suggests a blip, a full one sustained pressure.
func (s *Server) rejectRetryHint() time.Duration {
	hint := time.Second + time.Duration(s.queued.Load())*250*time.Millisecond
	return min(hint, 10*time.Second)
}

// shedding reports sustained admission-queue pressure (at least half
// the queue occupied), the point where allow_degraded requests are
// rerouted to the cheap baseline compile.
func (s *Server) shedding() bool {
	return s.cfg.QueueDepth > 0 && s.queued.Load()*2 >= int64(s.cfg.QueueDepth)
}

// Batch implements Backend: the items fan across a bounded worker pool
// no wider than the admission gate, so one batch never trips its own
// items into over_capacity: at most MaxInflight admits race at once and
// the rest of the batch waits its turn in the workers, not the queue.
// Each item passes the same front-end gates as a lone /v1/compile.
func (s *Server) Batch(ctx context.Context, reqs []wire.CompileRequest, emit func(wire.BatchItem)) {
	workers := max(1, min(s.pipe.Workers(), s.cfg.MaxInflight, len(reqs)))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, werr := s.front.answer(ctx, &reqs[i])
				emit(wire.BatchItem{V: wire.Version, Index: i, Result: res, Error: werr})
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// Stats implements Backend: pipeline and service counters.
func (s *Server) Stats(context.Context) (*wire.StatsResponse, error) {
	return &wire.StatsResponse{
		V:        wire.Version,
		Pipeline: wire.FromPipelineStats(s.pipe.Stats()),
		Service:  s.serviceStats(),
	}, nil
}

// Ready implements Backend: a local server takes work whenever it is
// not draining, which the front end tracks.
func (s *Server) Ready() bool { return true }

// Capabilities implements Backend: what this daemon can compile — the
// engine registry's schedulers and unroll policies and the machine_ref
// names — so clients discover a newly registered policy without a
// wire-version bump.
func (s *Server) Capabilities(context.Context) (*wire.CapabilitiesResponse, error) {
	var families []wire.StrategyFamily
	for _, f := range engine.StrategyFamilies() {
		families = append(families, wire.StrategyFamily{
			Prefix: f.Prefix, Placeholder: f.Placeholder, Doc: f.Doc,
		})
	}
	return &wire.CapabilitiesResponse{
		V:                wire.Version,
		Schedulers:       core.SchedulerNames(),
		Strategies:       core.StrategyNames(),
		StrategyFamilies: families,
		Features:         []string{"allow_degraded", "parallel_ii"},
		Quarantined:      s.quar.Quarantined(),
		Machines:         slices.Sorted(maps.Keys(s.machines)),
		Loops:            len(s.loops),
	}, nil
}

// handleCacheGet serves GET /v1/cache/{key}: one completed cache
// entry in the snapshot row shape, or 404 cache_miss.  This is the
// peer half of cluster federation — a sibling daemon asks here before
// compiling a miss — so it reads the cache without compiling, without
// touching the hit/miss counters, and keeps answering while draining:
// a draining daemon's cache is exactly what its peers need to inherit.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	s.m.cacheRequests.Add(1)
	key := r.PathValue("key")
	res, ok := s.pipe.Peek(key)
	if !ok {
		writeError(w, wire.Errorf(wire.CodeCacheMiss, "no completed entry for that key"))
		return
	}
	writeJSON(w, http.StatusOK, wire.FromCacheEntry(pipeline.CacheEntry{Key: key, Res: res}))
}

// serviceStats snapshots the daemon-side counters: the front end's
// plus the local backend's.
func (s *Server) serviceStats() wire.ServiceStats {
	fm := &s.front.m
	st := wire.ServiceStats{
		Requests: map[string]int64{
			"compile":      fm.requests.compile.Load(),
			"batch":        fm.requests.batch.Load(),
			"stats":        fm.requests.stats.Load(),
			"capabilities": fm.requests.capabilities.Load(),
			"cache":        s.m.cacheRequests.Load(),
		},
		Rejected:    s.m.rejected.Load(),
		Deadlines:   fm.deadlines.Load(),
		InFlight:    s.m.inflight.Load(),
		Queued:      s.queued.Load(),
		LatencyMS:   fm.latency.buckets(),
		Draining:    s.front.draining.Load(),
		Degraded:    s.m.degraded.Load(),
		Quarantined: s.m.quarantined.Load(),
		Engines:     wire.FromEngineHealth(s.quar.Snapshot()),
	}
	if s.cfg.Faults != nil {
		st.Faults = s.cfg.Faults.Counts()
	}
	return st
}

// handleVars serves GET /debug/vars in expvar's flat-JSON style.  The
// vars are per-server (not the process-global expvar registry) so
// several Servers — e.g. under test — never collide.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	ps := s.pipe.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"schedd.requests":      s.serviceStats().Requests,
		"schedd.rejected":      s.m.rejected.Load(),
		"schedd.deadlines":     s.front.m.deadlines.Load(),
		"schedd.inflight":      s.m.inflight.Load(),
		"schedd.cache.hits":    ps.Hits,
		"schedd.cache.misses":  ps.Misses,
		"schedd.cache.joins":   ps.DedupJoins,
		"schedd.cache.bytes":   ps.CachedBytes,
		"schedd.cache.entries": ps.CachedEntries,
		"schedd.evictions":     ps.Evictions,
		"schedd.fallbacks":     ps.Fallbacks,
		"schedd.compilations":  ps.Compilations,
		"schedd.panics":        ps.Panics,
		"schedd.quarantined":   s.m.quarantined.Load(),
		"schedd.degraded":      s.m.degraded.Load(),
		"schedd.disconnects":   s.front.m.disconnects.Load(),
		"schedd.latency_ms":    s.front.m.latency.buckets(),
	})
}
