// Router: the cluster's front door.  See the package doc (ring.go) for
// the topology; cmd/schedrouter wraps this in a process.

package cluster

import (
	"context"
	"io"
	"maps"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/wire"
)

// Replica names one schedd backend.
type Replica struct {
	// Name labels the replica for operators; routing ignores it.
	Name string
	// URL is the replica's base URL, e.g. "http://127.0.0.1:8181", and
	// its ring identity: the same member string its peers' -peers ring
	// hashes, so router and peers agree on every key's owner.
	URL string
}

// RouterConfig configures a Router.  Compile and batch exchanges use
// internal/client's defaults (4 attempts, 100ms..5s backoff, no
// hedging).
type RouterConfig struct {
	Replicas []Replica
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

const (
	// probeTimeout bounds one replica health/capability probe, and one
	// replica's share of an aggregated /v1/stats.
	probeTimeout = 2 * time.Second
	// maxBodyBytes bounds a request body; batches are large.
	maxBodyBytes = 64 << 20
)

// replicaState is one backend's live view: reachability from the last
// probe and its advertised capabilities, plus a single-attempt client
// for the per-replica stats and capability reads.
type replicaState struct {
	url   string
	cl    *client.Client
	alive atomic.Bool
	caps  atomic.Pointer[wire.CapabilitiesResponse]
}

// Router consistent-hashes compile traffic across schedd replicas and
// aggregates their stats and capabilities into one logical daemon.  It
// is a service.Backend: the HTTP surface — decoding, deadlines, drain,
// the batch stream — is the same front end schedd serves through.
// Safe for concurrent use; Probe may run concurrently with serving.
//
// Aggregated /v1/stats sums counters and merges latency histograms
// across live replicas; the per-engine breaker detail stays per-daemon
// (ask a replica directly) because summing breaker states across
// processes has no meaning.
type Router struct {
	ring  *Ring
	http  *http.Client
	front *service.Front

	states []*replicaState
	byURL  map[string]*replicaState
	// loops resolves loop_ref to the corpus loop schedd would compile,
	// so a by-reference request routes by the same fingerprint as the
	// same loop inline.
	loops map[string]*corpus.Loop

	// clients caches one resilient client per preference order, so a
	// keyspace region's failover chain reuses connections and backoff
	// state.
	clients sync.Map // strings.Join(order, "\x00") -> *client.Client

	rehashes atomic.Int64
}

// NewRouter builds a router over the configured replicas.
func NewRouter(cfg RouterConfig) (*Router, error) {
	urls := make([]string, len(cfg.Replicas))
	for i, rep := range cfg.Replicas {
		urls[i] = trimURL(rep.URL)
	}
	ring, err := NewRing(urls)
	if err != nil {
		return nil, err
	}
	rt := &Router{ring: ring, http: cfg.HTTP, byURL: map[string]*replicaState{},
		loops: corpus.Index(corpus.SPECfp95())}
	if rt.http == nil {
		rt.http = http.DefaultClient
	}
	for _, u := range urls {
		st := &replicaState{url: u}
		if st.cl, err = client.New(client.Config{Endpoints: []string{st.url}, HTTP: rt.http, Attempts: 1}); err != nil {
			return nil, err
		}
		// Until the first probe lands, assume reachable: a router booted
		// alongside its fleet should route, not 429, during the first
		// probe interval.
		st.alive.Store(true)
		rt.states = append(rt.states, st)
		rt.byURL[u] = st
	}
	rt.front = service.NewFront(rt, maxBodyBytes)
	return rt, nil
}

// Probe refreshes every replica's reachability (GET /readyz) and
// capabilities (GET /v1/capabilities), concurrently, and returns how
// many replicas are ready.  Run it once before serving and then on an
// interval; between probes, per-request failover still routes around a
// freshly dead replica via the client's endpoint rotation.
func (rt *Router) Probe(ctx context.Context) int {
	var wg sync.WaitGroup
	var ready atomic.Int64
	for _, st := range rt.states {
		wg.Add(1)
		go func(st *replicaState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			alive := rt.probeReady(pctx, st.url)
			st.alive.Store(alive)
			if alive {
				ready.Add(1)
				if caps, err := st.cl.Capabilities(pctx); err == nil {
					st.caps.Store(caps)
				}
			}
		}(st)
	}
	wg.Wait()
	return int(ready.Load())
}

func (rt *Router) probeReady(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.http.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode/100 == 2
}

// routingKey is the string the ring hashes for a request: the content
// fingerprint of the loop graph, inline or resolved from loop_ref.  A
// loop that does not resolve routes by the empty key; the replica it
// lands on answers the same wire error schedd would.
func (rt *Router) routingKey(req *wire.CompileRequest) string {
	l := req.Loop
	if l == nil {
		l = rt.loops[req.LoopRef]
	}
	if l == nil || l.Graph == nil {
		return ""
	}
	return l.Graph.Fingerprint()
}

// supports reports whether a replica's advertised capabilities cover
// the request's scheduler and strategy.  A replica that has never
// answered a capability probe is assumed capable — optimistic routing
// beats 429ing a fleet that just booted.
func supports(caps *wire.CapabilitiesResponse, opts *wire.Options) bool {
	if caps == nil || opts == nil {
		return true
	}
	if s := engine.CanonicalScheduler(opts.Scheduler); opts.Scheduler != "" && !slices.Contains(caps.Schedulers, s) {
		return false
	}
	if opts.Strategy != "" {
		s := engine.CanonicalStrategy(opts.Strategy)
		if !slices.Contains(caps.Strategies, s) && !familyMatch(caps.StrategyFamilies, s) {
			return false
		}
	}
	return true
}

// quarantined reports whether the request's scheduler is under
// quarantine on a replica — used to deprioritize, not exclude: a
// quarantined replica still beats no replica when the request allows
// degraded service or the quarantine is fleet-wide.
func quarantined(caps *wire.CapabilitiesResponse, opts *wire.Options) bool {
	if caps == nil || opts == nil {
		return false
	}
	return slices.Contains(caps.Quarantined, engine.CanonicalScheduler(opts.Scheduler))
}

func familyMatch(fams []wire.StrategyFamily, s string) bool {
	for _, f := range fams {
		if strings.HasPrefix(s, f.Prefix) {
			return true
		}
	}
	return false
}

// order builds the failover chain for one request: live,
// capability-compatible replicas in ring-preference order, replicas
// with the requested engine quarantined moved to the back.  The second
// return reports whether any replica was skipped (a rehash away from
// the true owner).
func (rt *Router) order(key string, opts *wire.Options) (urls []string, rehashed bool) {
	var back []string
	for _, u := range rt.ring.Prefer(key) {
		st := rt.byURL[u]
		caps := st.caps.Load()
		if !st.alive.Load() || !supports(caps, opts) {
			rehashed = true
			continue
		}
		if quarantined(caps, opts) {
			back = append(back, st.url)
			continue
		}
		urls = append(urls, st.url)
	}
	if len(back) > 0 && len(urls) == 0 {
		rehashed = true
	}
	return append(urls, back...), rehashed
}

// clientFor returns the cached resilient client for a failover chain.
func (rt *Router) clientFor(urls []string) (*client.Client, error) {
	key := strings.Join(urls, "\x00")
	if c, ok := rt.clients.Load(key); ok {
		return c.(*client.Client), nil
	}
	c, err := client.New(client.Config{Endpoints: append([]string(nil), urls...), HTTP: rt.http})
	if err != nil {
		return nil, err
	}
	actual, _ := rt.clients.LoadOrStore(key, c)
	return actual.(*client.Client), nil
}

// Rehashes counts requests whose preferred replica was skipped (dead
// or incapable) — the degraded-to-rehashing events.
func (rt *Router) Rehashes() int64 { return rt.rehashes.Load() }

// Handler returns the router's HTTP surface: the shared service front
// end, so clients and the load harness point at a router or a daemon
// interchangeably.
func (rt *Router) Handler() http.Handler { return rt.front.Mux() }

// BeginDrain flips the router's front end into drain mode: /readyz
// answers 503 and new compile work is refused with the draining error
// while in-flight requests finish.  cmd/schedrouter calls it on
// SIGTERM, before http.Server.Shutdown.
func (rt *Router) BeginDrain() { rt.front.BeginDrain() }

// Ready implements service.Backend: the router can take work while any
// replica answered its last readiness probe.
func (rt *Router) Ready() bool {
	for _, st := range rt.states {
		if st.alive.Load() {
			return true
		}
	}
	return false
}

// noReplica is the answer when no live, capable replica is left.
func noReplica() *wire.Error {
	return &wire.Error{Code: wire.CodeOverCapacity,
		Message: "no live replica can serve this request", RetryAfterMS: 1000}
}

// Compile implements service.Backend: one compile down its failover
// chain, under the front end's deadline for the request.
func (rt *Router) Compile(ctx context.Context, req *wire.CompileRequest) (*wire.Result, error) {
	urls, rehashed := rt.order(rt.routingKey(req), req.Options)
	if rehashed {
		rt.rehashes.Add(1)
	}
	if len(urls) == 0 {
		return nil, noReplica()
	}
	cl, err := rt.clientFor(urls)
	if err != nil {
		return nil, err
	}
	return cl.Compile(ctx, req)
}

// Batch implements service.Backend by sharding across owners: requests
// group by their failover chain, each group rides one /v1/batch
// exchange through that chain — so a replica sees the same traffic it
// would see from a direct client — and items go out as each group
// settles, re-anchored to the caller's indices.  Each item's deadline
// runs from its arrival here, by the rule the front end applies to a
// single compile; it never cuts an exchange short (the replica times
// each item from when a worker takes it up), but an item that comes
// back transient after its deadline settles deadline_exceeded instead
// of being re-sent.
func (rt *Router) Batch(ctx context.Context, reqs []wire.CompileRequest, emit func(wire.BatchItem)) {
	start := time.Now()
	groups := map[string][]int{}
	chains := map[string][]string{}
	for i := range reqs {
		urls, rehashed := rt.order(rt.routingKey(&reqs[i]), reqs[i].Options)
		if rehashed {
			rt.rehashes.Add(1)
		}
		gk := strings.Join(urls, "\x00") // empty key = nobody can serve
		groups[gk] = append(groups[gk], i)
		chains[gk] = urls
	}
	var wg sync.WaitGroup
	for gk, idxs := range groups {
		urls := chains[gk]
		if len(urls) == 0 {
			for _, i := range idxs {
				emit(wire.BatchItem{V: wire.Version, Index: i, Error: noReplica()})
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([]wire.CompileRequest, len(idxs))
			deadlines := make([]time.Time, len(idxs))
			for k, i := range idxs {
				sub[k] = reqs[i]
				deadlines[k] = start.Add(service.RequestTimeout(&reqs[i]))
			}
			cl, err := rt.clientFor(urls)
			var items []wire.BatchItem
			if err == nil {
				items, err = cl.BatchUntil(ctx, sub, deadlines)
			}
			for k, i := range idxs {
				if err != nil {
					emit(wire.BatchItem{V: wire.Version, Index: i, Error: wire.Errorf(wire.CodeInternal, "%v", err)})
					continue
				}
				items[k].Index = i
				emit(items[k])
			}
		}()
	}
	wg.Wait()
}

// Stats implements service.Backend: /v1/stats across live replicas
// aggregated into one logical daemon's view.
func (rt *Router) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	var wg sync.WaitGroup
	results := make(chan *wire.StatsResponse, len(rt.states))
	for _, st := range rt.states {
		if !st.alive.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			if sr, err := st.cl.Stats(pctx); err == nil {
				results <- sr
			}
		}()
	}
	wg.Wait()
	close(results)

	agg := wire.StatsResponse{V: wire.Version}
	agg.Service.Requests = map[string]int64{}
	buckets := map[float64]int64{}
	polledCount, drainingCount := 0, 0
	for sr := range results {
		polledCount++
		ps := sr.Pipeline
		a := &agg.Pipeline
		a.Hits += ps.Hits
		a.Misses += ps.Misses
		a.DedupJoins += ps.DedupJoins
		a.Compilations += ps.Compilations
		a.Fallbacks += ps.Fallbacks
		a.Evictions += ps.Evictions
		a.CachedBytes += ps.CachedBytes
		a.CachedEntries += ps.CachedEntries
		a.CompileNS += ps.CompileNS
		a.WallNS += ps.WallNS
		a.Panics += ps.Panics
		a.PeerHits += ps.PeerHits
		a.Seeded += ps.Seeded

		ss := sr.Service
		for k, v := range ss.Requests {
			agg.Service.Requests[k] += v
		}
		agg.Service.Rejected += ss.Rejected
		agg.Service.Deadlines += ss.Deadlines
		agg.Service.InFlight += ss.InFlight
		agg.Service.Queued += ss.Queued
		agg.Service.Degraded += ss.Degraded
		agg.Service.Quarantined += ss.Quarantined
		if ss.Draining {
			drainingCount++
		}
		for _, b := range ss.LatencyMS {
			le := b.Le
			if le < 0 {
				le = math.Inf(1)
			}
			buckets[le] += b.Count
		}
		for name, n := range ss.Faults {
			if agg.Service.Faults == nil {
				agg.Service.Faults = map[string]int64{}
			}
			agg.Service.Faults[name] += n
		}
	}
	if lookups := agg.Pipeline.Hits + agg.Pipeline.Misses; lookups > 0 {
		agg.Pipeline.HitRate = float64(agg.Pipeline.Hits) / float64(lookups)
	}
	agg.Service.Draining = polledCount > 0 && drainingCount == polledCount
	for _, le := range slices.Sorted(maps.Keys(buckets)) {
		b := wire.HistogramBucket{Le: le, Count: buckets[le]}
		if math.IsInf(le, 1) {
			b.Le = -1
		}
		agg.Service.LatencyMS = append(agg.Service.LatencyMS, b)
	}
	return &agg, nil
}

// Capabilities implements service.Backend by unioning the fleet's
// probed capabilities: a scheduler one replica serves is routable
// (capability routing sends it there), so the union is what the
// cluster as a whole can do.  Quarantined is the intersection — an
// engine is only cluster-quarantined when no replica will take it.
func (rt *Router) Capabilities(context.Context) (*wire.CapabilitiesResponse, error) {
	agg := wire.CapabilitiesResponse{V: wire.Version}
	schedulers, strategies, features, machines := map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}
	families := map[string]wire.StrategyFamily{}
	var quarantine map[string]bool
	polledAny := false
	for _, st := range rt.states {
		if !st.alive.Load() {
			continue
		}
		caps := st.caps.Load()
		if caps == nil {
			continue
		}
		polledAny = true
		for _, s := range caps.Schedulers {
			schedulers[s] = true
		}
		for _, s := range caps.Strategies {
			strategies[s] = true
		}
		for _, f := range caps.Features {
			features[f] = true
		}
		for _, m := range caps.Machines {
			machines[m] = true
		}
		for _, f := range caps.StrategyFamilies {
			families[f.Prefix] = f
		}
		if caps.Loops > agg.Loops {
			agg.Loops = caps.Loops
		}
		q := map[string]bool{}
		for _, e := range caps.Quarantined {
			q[e] = true
		}
		if quarantine == nil {
			quarantine = q
		} else {
			for e := range quarantine {
				if !q[e] {
					delete(quarantine, e)
				}
			}
		}
	}
	if !polledAny {
		return nil, wire.Errorf(wire.CodeDraining, "no replica has answered a capability probe")
	}
	agg.Schedulers = slices.Sorted(maps.Keys(schedulers))
	agg.Strategies = slices.Sorted(maps.Keys(strategies))
	agg.Features = slices.Sorted(maps.Keys(features))
	agg.Machines = slices.Sorted(maps.Keys(machines))
	agg.Quarantined = slices.Sorted(maps.Keys(quarantine))
	for _, p := range slices.Sorted(maps.Keys(families)) {
		agg.StrategyFamilies = append(agg.StrategyFamilies, families[p])
	}
	return &agg, nil
}
