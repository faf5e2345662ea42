// Package pipeline is the concurrent batch-compilation subsystem: a
// sharded, deduplicating compile cache in front of core.Compile plus a
// bounded worker pool that fans batches of compile requests out across
// CPUs while preserving result order.
//
// The experiments drivers, cmd/experiments and the scheduling service
// (internal/service) all funnel their compilations
// through one Pipeline, so a figure or a request that revisits a
// (loop, machine, options) combination pays for it once no matter how
// many goroutines ask, and a batch of independent compilations uses
// every core.
//
// Concurrency model: the cache is split into shards, each guarded by
// its own mutex, so concurrent requests for different keys rarely
// contend.  The first request for a key claims an in-flight entry and
// compiles on a detached goroutine; later requests for the same key
// join that entry (singleflight) and block on its done channel until
// the result lands.  Results — including errors, since compilation is
// deterministic — are cached; loops are identified by their content
// fingerprint (ddg.Graph.Fingerprint), so structurally identical loops
// deduplicate even when they arrive as distinct decoded objects.
// CompileBatch feeds a fixed pool of worker goroutines from a channel
// of indices and writes each response into the slot of its request, so
// the returned slice is deterministic regardless of completion order.
//
// Long-running use (the service daemon) adds two facilities batch runs
// don't need: CompileCtx respects a context deadline — the caller
// unblocks at expiry while the shared compile runs to completion and is
// cached for the next asker — and SetCacheBytes bounds the cache with a
// per-shard LRU so a daemon's memory stays flat under an endless
// request stream (evictions are visible in Stats).
package pipeline

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/machine"
)

// numShards splits the cache; 32 is comfortably above any worker count
// this library runs with.
const numShards = 32

// Request identifies one compilation: a loop, a target machine and the
// compile options.
type Request struct {
	Loop *corpus.Loop
	Cfg  machine.Config
	Opts core.Options
}

// cacheable reports whether the request can be keyed: per-run slices
// (an explicit node order or a fixed assignment) have no stable textual
// identity, so such requests always compile.
func (r Request) cacheable() bool {
	return r.Opts.Sched.Order == nil && r.Opts.Sched.Assignment == nil
}

// key builds the cache identity.  The loop is identified by its graph's
// content fingerprint — name, unroll factor, every node and edge — so
// two structurally identical graphs share one entry no matter where
// they were decoded, and two distinct graphs sharing a name never
// alias.  Every Config field that can change a schedule (including the
// FU mix and any heterogeneous layout) and every keyable option is
// included alongside the config Name, so two distinct configurations
// sharing a label never collide either.  Scheduler and strategy are
// keyed by their canonical registered names, so the zero value, the
// canonical spelling and every alias ("ne", "nystrom-eichenberger")
// share one entry.
func (r Request) key() string {
	return fmt.Sprintf("%s:%s|%s|%d|%v|%v|%d|%d|%d|%s|%s|%d|%d|%d|%d|%d|%d|%d",
		r.Loop.Graph.Fingerprint(), r.Loop.Bench,
		r.Cfg.Name, r.Cfg.NClusters, r.Cfg.FUsPerCluster, r.Cfg.Hetero,
		r.Cfg.NBuses, r.Cfg.BusLatency, r.Cfg.RegsPerCluster,
		engine.CanonicalScheduler(r.Opts.Scheduler.String()),
		engine.CanonicalStrategy(r.Opts.Strategy.String()), r.Opts.Factor,
		r.Opts.Sched.Policy, r.Opts.Sched.MaxII, r.Opts.Sched.ForceII,
		r.Opts.Exact.MaxNodes, r.Opts.Exact.MaxSteps, r.Opts.Exact.MaxII)
}

// Response pairs one batch request's result with its error.
type Response struct {
	Result *core.Result
	Err    error
}

// Stats is a point-in-time snapshot of pipeline activity.
type Stats struct {
	// Hits counts requests answered from a completed cache entry.
	Hits int64
	// Misses counts requests that had to compile (including uncacheable
	// ones).
	Misses int64
	// DedupJoins counts requests that found their key already in flight
	// and waited for the first requester's result.
	DedupJoins int64
	// Compilations counts CompileFunc invocations (== Misses).  The
	// default CompileFunc may run core.Compile twice inside one counted
	// compilation when the unroll fallback engages.
	Compilations int64
	// Fallbacks counts compilations whose result came from the
	// UnrollAll→NoUnroll fallback (Result.FellBack): the row a figure
	// reports as "Unrolling" is actually a non-unrolled schedule.  A
	// cached fallback result counts once, at compile time.
	Fallbacks int64
	// Panics counts compilations that panicked and were converted into a
	// typed engine.PanicError by the pipeline's recovery fence.  Panic
	// results are never cached (see fill), so every occurrence is one
	// real panicking compile.
	Panics int64
	// PeerHits counts misses satisfied by a peer's cache over the
	// cluster federation path instead of a local compile.
	PeerHits int64
	// Seeded counts entries inserted from outside a compile: snapshot
	// restore on warm-start, corpus prefill.
	Seeded int64
	// Evictions counts completed entries dropped by the LRU byte bound
	// (zero on an unbounded pipeline).
	Evictions int64
	// CachedBytes is the current estimated size of all completed cache
	// entries (see SetCacheBytes for the accounting model).
	CachedBytes int64
	// CachedEntries is the current number of cache entries, completed or
	// in flight (== Len()).
	CachedEntries int64
	// CompileTime is total time spent inside core.Compile, summed over
	// workers (it exceeds wall time when workers overlap).
	CompileTime time.Duration
	// WallTime is total wall-clock time spent inside CompileBatch calls.
	WallTime time.Duration
}

func (s Stats) String() string {
	return fmt.Sprintf("pipeline: %d hits, %d misses, %d dedup joins, %d compilations (%d unroll fallbacks, %d panics), %d evictions, %d entries / %d bytes cached, compile %v, wall %v",
		s.Hits, s.Misses, s.DedupJoins, s.Compilations, s.Fallbacks, s.Panics,
		s.Evictions, s.CachedEntries, s.CachedBytes,
		s.CompileTime.Round(time.Millisecond), s.WallTime.Round(time.Millisecond))
}

// CompileFunc performs one compilation; Pipeline's default wraps
// core.Compile with the evaluation's unroll fallback.
type CompileFunc func(*corpus.Loop, *machine.Config, core.Options) (*core.Result, error)

// entry is one cache slot: done closes when res/err are final.  bytes is
// zero while the compile is in flight and positive once completed (the
// estimate always includes the key), which is how eviction tells the two
// apart.
type entry struct {
	key   string
	done  chan struct{}
	res   *core.Result
	err   error
	bytes int64
}

// shard is one cache partition: a key-indexed LRU list of entries plus
// the byte total of its completed ones.
type shard struct {
	mu      sync.Mutex
	entries map[string]*list.Element // value: *entry; front = most recent
	lru     *list.List
	bytes   int64
}

// Pipeline is a concurrent compile cache with a bounded worker pool.
// It is safe for use by any number of goroutines.
type Pipeline struct {
	workers int
	compile CompileFunc

	shards [numShards]shard

	// maxBytes > 0 bounds the cache (see SetCacheBytes).
	maxBytes atomic.Int64
	// onEvict, when non-nil, observes evictions (see SetEvictHook).
	onEvict func(key string, bytes int64)
	// fillSem, when non-nil, caps concurrently running compiles (see
	// SetMaxConcurrentCompiles): a slot is acquired before an entry is
	// claimed and released when its fill goroutine finishes.
	fillSem chan struct{}
	// peerLookup, when non-nil, resolves misses against the cluster
	// before compiling (see SetPeerLookup).
	peerLookup PeerLookupFunc

	hits, misses, joins, compilations, fallbacks, evictions, panics atomic.Int64
	peerHits, seeded                                                atomic.Int64
	compileNS, wallNS                                               atomic.Int64
}

// New returns a Pipeline whose batch pool runs the given number of
// workers; workers <= 0 means GOMAXPROCS.  The cache is unbounded until
// SetCacheBytes.
func New(workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{workers: workers, compile: compileOne}
	for i := range p.shards {
		p.shards[i].entries = map[string]*list.Element{}
		p.shards[i].lru = list.New()
	}
	return p
}

// Workers returns the batch pool size.
func (p *Pipeline) Workers() int { return p.workers }

// SetCacheBytes bounds the completed-entry cache to roughly n bytes,
// split evenly across the shards; each shard evicts its least recently
// used completed entries once its share overflows, so the global total
// never exceeds n.  Entry sizes are an estimate of resident memory
// (key, result, schedule tables and the retained graph).  n <= 0 means
// unbounded — the default, and what one-shot experiment runs want.
// In-flight entries are never evicted.
func (p *Pipeline) SetCacheBytes(n int64) { p.maxBytes.Store(n) }

// SetEvictHook registers fn to observe every LRU eviction (key and
// estimated bytes).  fn runs with the shard lock held, so it must be
// fast and must not reenter the pipeline.  Call before serving traffic;
// nil unregisters.  Tests and metrics exporters use this.
func (p *Pipeline) SetEvictHook(fn func(key string, bytes int64)) { p.onEvict = fn }

// SetCompile replaces the compile function (default: core.Compile with
// the unroll fallback).  Call before serving traffic.  Tests use this
// to inject failures, delays and invocation counters.
func (p *Pipeline) SetCompile(fn CompileFunc) { p.compile = fn }

// WrapCompile decorates the current compile function in place —
// fault injectors and instrumentation wrap the default (or an already
// replaced function) without having to know which it is.  Call before
// serving traffic.
func (p *Pipeline) WrapCompile(wrap func(CompileFunc) CompileFunc) { p.compile = wrap(p.compile) }

// SetMaxConcurrentCompiles caps the number of compiles running at once
// across all callers; n <= 0 means unbounded (the default).  Call
// before serving traffic.  Without a cap, a caller whose deadline
// expires leaves its compile running detached — harmless for batch
// runs, but a daemon fed cheap-to-request, expensive-to-compile work
// with tiny timeouts could otherwise accumulate unbounded concurrent
// compiles; with the cap, a prospective compile waits for a slot
// before its cache entry is even claimed (so the wait is
// deadline-bounded and spawns nothing), and at most n fill goroutines
// exist at any instant.
func (p *Pipeline) SetMaxConcurrentCompiles(n int) {
	if n > 0 {
		p.fillSem = make(chan struct{}, n)
	} else {
		p.fillSem = nil
	}
}

// compileOne is the default CompileFunc: core.Compile with the
// pragmatic fallback the evaluation needs — when unconditional
// unrolling cannot be scheduled (register files too small for the
// unrolled body), the loop falls back to its non-unrolled schedule,
// exactly what a compiler would ship.  The fallback is never silent:
// the result is marked FellBack, the Decision records why the unrolled
// compile failed, and Stats.Fallbacks counts it — otherwise a Figure
// 8/10 "Unrolling" row could quietly report non-unrolled schedules.
func compileOne(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
	res, err := core.Compile(l.Graph, cfg, &opts)
	// Compare canonically: the cache keys "all" and "unroll_all" to one
	// entry, so the fallback must engage for every spelling or the
	// cached outcome would depend on which alias asked first.
	if err != nil && engine.CanonicalStrategy(opts.Strategy.String()) == string(core.UnrollAll) {
		unrollErr := err
		fallback := opts
		fallback.Strategy = core.NoUnroll
		res, err = core.Compile(l.Graph, cfg, &fallback)
		if err == nil {
			res.FellBack = true
			res.Decision.Factor = 1
			res.Decision.FailReason = fmt.Sprintf("unroll-all unschedulable, fell back to no-unroll: %v", unrollErr)
		}
	}
	return res, err
}

func shardOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % numShards)
}

// Compile resolves one request through the cache: a completed entry is
// a hit, an in-flight entry is joined, and a fresh key compiles exactly
// once no matter how many goroutines race for it.
func (p *Pipeline) Compile(req Request) (*core.Result, error) {
	return p.CompileCtx(context.Background(), req)
}

// CompileCtx is Compile with a context: a caller whose context expires
// unblocks immediately with ctx.Err(), while the underlying compile —
// shared by every requester of the key — runs to completion on its own
// goroutine and lands in the cache for the next asker.  The compile
// itself is not interruptible (the schedulers take no context), so a
// deadline bounds the caller's wait, not the work.  Exception:
// uncacheable requests (an explicit Order or Assignment — per-run
// ablation paths, never reachable over the wire) run synchronously on
// the caller's goroutine; they have no entry for anyone to share, so
// detaching them would only discard the work, and the deadline is
// checked solely on entry.
func (p *Pipeline) CompileCtx(ctx context.Context, req Request) (*core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !req.cacheable() {
		p.misses.Add(1)
		return p.run(req)
	}
	key := req.key()
	sh := &p.shards[shardOf(key)]

	haveSlot := false
	for {
		sh.mu.Lock()
		if el, ok := sh.entries[key]; ok {
			sh.lru.MoveToFront(el)
			e := el.Value.(*entry)
			sh.mu.Unlock()
			if haveSlot {
				<-p.fillSem // lost the claim race; join instead
			}
			select {
			case <-e.done:
				p.hits.Add(1)
				return e.res, e.err
			default:
			}
			p.joins.Add(1)
			select {
			case <-e.done:
				return e.res, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if p.fillSem == nil || haveSlot {
			e := &entry{key: key, done: make(chan struct{})}
			sh.entries[key] = sh.lru.PushFront(e)
			sh.mu.Unlock()

			p.misses.Add(1)
			go func() {
				p.fill(sh, e, req)
				if haveSlot {
					<-p.fillSem
				}
			}()

			select {
			case <-e.done:
				return e.res, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// Capped: wait for a compile slot before claiming the key, so an
		// expired deadline aborts here without spawning anything.
		sh.mu.Unlock()
		select {
		case p.fillSem <- struct{}{}:
			haveSlot = true
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fill completes an in-flight entry: compile, publish the result (the
// close happens-before every waiter's read), account the bytes and
// evict whatever the new entry pushed over the shard's budget.
//
// Transient failures — recovered panics, injected faults — are
// published to the waiters but never cached: the entry is removed
// before the done channel closes, so the next request for the key
// compiles afresh instead of replaying a fault forever.  Deterministic
// compile errors stay cached as before.
func (p *Pipeline) fill(sh *shard, e *entry, req Request) {
	var res *core.Result
	var err error
	// Federation: a miss costs one intra-cluster lookup before it costs
	// a compile.  The peer most likely to own this fingerprint either
	// has the finished result (identical loops recur constantly — the
	// whole premise) or answers not-found fast; only then do we pay.
	if p.peerLookup != nil {
		if r, ok := p.peerLookup(e.key); ok && r != nil {
			res = r
			p.peerHits.Add(1)
		}
	}
	if res == nil {
		res, err = p.run(req)
	}
	sh.mu.Lock()
	e.res, e.err = res, err
	if err != nil && engine.Transient(err) {
		if el, ok := sh.entries[e.key]; ok && el.Value.(*entry) == e {
			sh.lru.Remove(el)
			delete(sh.entries, e.key)
		}
		close(e.done)
		sh.mu.Unlock()
		return
	}
	e.bytes = entryBytes(e.key, res)
	sh.bytes += e.bytes
	// Evict before publishing: a caller returning from this entry then
	// observes every side effect (stats, hooks) of the insertion.
	p.evictLocked(sh)
	close(e.done)
	sh.mu.Unlock()
}

// evictLocked drops least-recently-used completed entries until the
// shard is back under its share of the byte budget.  In-flight entries
// (bytes == 0) are skipped: their cost is unknown and waiters hold
// their done channel.
func (p *Pipeline) evictLocked(sh *shard) {
	maxBytes := p.maxBytes.Load()
	if maxBytes <= 0 {
		return
	}
	budget := maxBytes / numShards
	for sh.bytes > budget {
		el := sh.lru.Back()
		for el != nil && el.Value.(*entry).bytes == 0 {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		e := el.Value.(*entry)
		sh.lru.Remove(el)
		delete(sh.entries, e.key)
		sh.bytes -= e.bytes
		p.evictions.Add(1)
		if p.onEvict != nil {
			p.onEvict(e.key, e.bytes)
		}
	}
}

// entryBytes estimates the resident memory of one completed cache
// entry: map key, entry bookkeeping, the Result with its schedule
// tables, and the graph the schedule retains.  The constants are struct
// sizes rounded up for allocator slack; the point is a stable,
// conservative accounting unit for the byte budget, not exactness.
func entryBytes(key string, res *core.Result) int64 {
	const entryOverhead = 192 // entry + list.Element + map slot
	n := int64(len(key)) + entryOverhead
	if res == nil {
		return n // cached error: the error string is small
	}
	n += 128 // Result struct incl. Decision
	n += int64(len(res.Decision.FailReason))
	if res.Exact != nil {
		n += 48
	}
	if t := res.Stages; t != nil {
		n += 192 // Telemetry header + the four canonical stages
		n += int64(len(t.Trajectory)) * 8
		n += int64(len(t.Candidates)) * 64
	}
	if s := res.Schedule; s != nil {
		n += 192 // Schedule header + Cfg
		n += int64(len(s.Placements)) * 32
		n += int64(len(s.Transfers)) * 40
		n += int64(len(s.Causes)) * 48
		if g := s.Graph; g != nil {
			n += int64(g.NumNodes())*88 + int64(g.NumEdges())*96
		}
	}
	return n
}

// run performs the compilation and accounts for it.  It is the
// pipeline's panic fence: compiles execute on detached fill goroutines
// (and batch workers), where an escaped panic would kill the whole
// process with no handler in between — so any panic a CompileFunc lets
// through (the engine converts its own; this catches custom compile
// functions and anything else) becomes a typed engine.PanicError here.
func (p *Pipeline) run(req Request) (res *core.Result, err error) {
	start := time.Now()
	defer func() {
		p.compileNS.Add(time.Since(start).Nanoseconds())
		p.compilations.Add(1)
		if r := recover(); r != nil {
			res, err = nil, engine.NewPanicError(
				engine.CanonicalScheduler(req.Opts.Scheduler.String()), "", r)
		}
		var perr *engine.PanicError
		if errors.As(err, &perr) {
			p.panics.Add(1)
		}
		if res != nil && res.FellBack {
			p.fallbacks.Add(1)
		}
	}()
	return p.compile(req.Loop, &req.Cfg, req.Opts)
}

// CompileBatch fans the requests across the worker pool and returns one
// response per request, in request order.  Duplicate requests inside a
// batch compile once; errors are reported per slot, never aborting the
// rest of the batch.
func (p *Pipeline) CompileBatch(reqs []Request) []Response {
	return p.CompileBatchCtx(context.Background(), reqs)
}

// CompileBatchCtx is CompileBatch with a context: when it expires, the
// in-flight slots return ctx.Err() as they unblock and the unstarted
// slots are marked with ctx.Err() without compiling.
func (p *Pipeline) CompileBatchCtx(ctx context.Context, reqs []Request) []Response {
	start := time.Now()
	out := make([]Response, len(reqs))

	workers := p.workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := p.CompileCtx(ctx, reqs[i])
				out[i] = Response{Result: res, Err: err}
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Result == nil && out[i].Err == nil {
				out[i].Err = err
			}
		}
	}

	p.wallNS.Add(time.Since(start).Nanoseconds())
	return out
}

// Stats snapshots the counters.
func (p *Pipeline) Stats() Stats {
	var bytes, entries int64
	for i := range p.shards {
		p.shards[i].mu.Lock()
		bytes += p.shards[i].bytes
		entries += int64(len(p.shards[i].entries))
		p.shards[i].mu.Unlock()
	}
	return Stats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		DedupJoins:    p.joins.Load(),
		Compilations:  p.compilations.Load(),
		Fallbacks:     p.fallbacks.Load(),
		Panics:        p.panics.Load(),
		PeerHits:      p.peerHits.Load(),
		Seeded:        p.seeded.Load(),
		Evictions:     p.evictions.Load(),
		CachedBytes:   bytes,
		CachedEntries: entries,
		CompileTime:   time.Duration(p.compileNS.Load()),
		WallTime:      time.Duration(p.wallNS.Load()),
	}
}

// Purge drops every completed cache entry and returns how many were
// removed; in-flight entries stay (their waiters hold the done
// channel).  Purged entries do not count as evictions — this is an
// operator/chaos action (cache-churn fault injection, manual cache
// reset), not byte-budget pressure.
func (p *Pipeline) Purge() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Back(); el != nil; {
			prev := el.Prev()
			if e := el.Value.(*entry); e.bytes > 0 {
				sh.lru.Remove(el)
				delete(sh.entries, e.key)
				sh.bytes -= e.bytes
				n++
			}
			el = prev
		}
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of cached entries (completed or in flight).
func (p *Pipeline) Len() int {
	n := 0
	for i := range p.shards {
		p.shards[i].mu.Lock()
		n += len(p.shards[i].entries)
		p.shards[i].mu.Unlock()
	}
	return n
}
