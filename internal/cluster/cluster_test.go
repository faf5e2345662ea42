// End-to-end cluster tests: real service.Server replicas behind real
// HTTP listeners, exercised through the router and the peer-lookup
// federation hook the way cmd/schedrouter and cmd/schedd wire them.
// Run under -race: the router probes, routes, and aggregates
// concurrently with serving.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/wire"
)

// compileBody is the canonical test request for one loop.
func compileBody(loopRef string) string {
	return fmt.Sprintf(`{"v":1,"loop_ref":%q,"machine_ref":"4-cluster/B1/L1"}`, loopRef)
}

// postCompile sends one compile and decodes the result.
func postCompile(t *testing.T, base, loopRef string) (*wire.Result, int, *wire.Error) {
	t.Helper()
	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(compileBody(loopRef)))
	if err != nil {
		t.Fatalf("POST /v1/compile: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er wire.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("HTTP %d with undecodable error body: %v", resp.StatusCode, err)
		}
		return nil, resp.StatusCode, er.Error
	}
	var cr wire.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode compile response: %v", err)
	}
	return cr.Result, resp.StatusCode, nil
}

// scheduleKey digests a result's deterministic schedule facts,
// dropping the telemetry (stage timings) that varies run to run.
func scheduleKey(res *wire.Result) string {
	stripped := *res
	stripped.Stages = nil
	b, _ := json.Marshal(&stripped)
	return string(b)
}

// loopRefs returns n distinct corpus loop names, deterministically.
func loopRefs(t *testing.T, n int) []string {
	t.Helper()
	idx := corpus.Index(corpus.SPECfp95())
	names := make([]string, 0, len(idx))
	for name := range idx {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) < n {
		t.Fatalf("corpus has %d loops, test needs %d", len(names), n)
	}
	return names[:n]
}

// TestPeerHitServesWithoutRecompiling pins the federated-cache
// contract: a daemon whose local cache misses asks the ring-preferred
// peer and, on a peer hit, serves the peer's result without running a
// single compile of its own.
func TestPeerHitServesWithoutRecompiling(t *testing.T) {
	srvA := service.New(service.Config{Workers: 2})
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	srvB := service.New(service.Config{Workers: 2})
	pl, err := NewPeerLookup(PeerConfig{Self: "http://self.invalid", Peers: []string{tsA.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if pl == nil {
		t.Fatal("NewPeerLookup returned nil with one real peer")
	}
	srvB.Pipeline().SetPeerLookup(pl.Func())
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	const ref = "tomcatv.loop0"
	want, status, werr := postCompile(t, tsA.URL, ref)
	if werr != nil {
		t.Fatalf("seed compile on A: HTTP %d %v", status, werr)
	}

	got, status, werr := postCompile(t, tsB.URL, ref)
	if werr != nil {
		t.Fatalf("compile via B: HTTP %d %v", status, werr)
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("peer-served result differs from the peer's own:\nA: %s\nB: %s", wb, gb)
	}

	stats := srvB.Pipeline().Stats()
	if stats.Compilations != 0 {
		t.Fatalf("B ran %d compilations, want 0 (peer hit must not recompile)", stats.Compilations)
	}
	if stats.PeerHits != 1 {
		t.Fatalf("B recorded %d peer hits, want 1", stats.PeerHits)
	}
	if stats.Misses != 1 {
		t.Fatalf("B recorded %d misses, want 1 (the lookup that federated)", stats.Misses)
	}

	// Second request for the same loop is now a plain local hit: the
	// peer-fetched entry was cached, not just forwarded.
	if _, _, werr := postCompile(t, tsB.URL, ref); werr != nil {
		t.Fatalf("second compile via B: %v", werr)
	}
	if stats := srvB.Pipeline().Stats(); stats.Hits != 1 || stats.PeerHits != 1 {
		t.Fatalf("after repeat: hits=%d peer_hits=%d, want 1 local hit and no new peer traffic",
			stats.Hits, stats.PeerHits)
	}

	// A peer miss (loop A never compiled) falls back to a local compile.
	if _, _, werr := postCompile(t, tsB.URL, "swim.loop0"); werr != nil {
		t.Fatalf("compile of un-federated loop via B: %v", werr)
	}
	if stats := srvB.Pipeline().Stats(); stats.Compilations != 1 || stats.PeerHits != 1 {
		t.Fatalf("after peer miss: compilations=%d peer_hits=%d, want exactly 1 and 1",
			stats.Compilations, stats.PeerHits)
	}
}

// clusterUnderTest is a 3-replica fleet behind one router, each
// replica federated with all three URLs as cmd/schedd -peers/-peer-self
// wire it.
type clusterUnderTest struct {
	srvs   []*service.Server
	tss    []*httptest.Server
	router *Router
	front  *httptest.Server
}

func newCluster(t *testing.T) *clusterUnderTest {
	t.Helper()
	c := &clusterUnderTest{}
	var reps []Replica
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewUnstartedServer(nil)
		t.Cleanup(ts.Close)
		c.tss = append(c.tss, ts)
		urls = append(urls, "http://"+ts.Listener.Addr().String())
		reps = append(reps, Replica{Name: fmt.Sprintf("s%d", i+1), URL: urls[i]})
	}
	for i, ts := range c.tss {
		srv := service.New(service.Config{Workers: 2})
		pl, err := NewPeerLookup(PeerConfig{Self: urls[i], Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		srv.Pipeline().SetPeerLookup(pl.Func())
		ts.Config.Handler = srv.Handler()
		ts.Start()
		c.srvs = append(c.srvs, srv)
	}
	rt, err := NewRouter(RouterConfig{Replicas: reps})
	if err != nil {
		t.Fatal(err)
	}
	if ready := rt.Probe(context.Background()); ready != 3 {
		t.Fatalf("probe found %d/3 replicas ready", ready)
	}
	c.router = rt
	c.front = httptest.NewServer(rt.Handler())
	t.Cleanup(c.front.Close)
	return c
}

// compilations sums compile counts across the fleet.
func (c *clusterUnderTest) compilations() (total int64, per []int64) {
	for _, srv := range c.srvs {
		n := srv.Pipeline().Stats().Compilations
		per = append(per, n)
		total += n
	}
	return total, per
}

// TestClusterShardsAndRehashesOnReplicaLoss drives compiles through
// the router, checks the keyspace actually spreads over the fleet and
// repeats hit the owner's cache, then kills a replica and proves the
// cluster degrades to rehashing: the dead shard's keys re-home and
// every request still succeeds.
func TestClusterShardsAndRehashesOnReplicaLoss(t *testing.T) {
	c := newCluster(t)
	refs := loopRefs(t, 12)

	// Key the comparison on the deterministic schedule facts (II, stage
	// count, placements); telemetry timings legitimately differ between
	// a cached result and a fresh recompile on another replica.
	results := map[string]string{}
	for _, ref := range refs {
		res, status, werr := postCompile(t, c.front.URL, ref)
		if werr != nil {
			t.Fatalf("%s: HTTP %d %v", ref, status, werr)
		}
		results[ref] = scheduleKey(res)
	}
	total, per := c.compilations()
	if total != int64(len(refs)) {
		t.Fatalf("fleet compiled %d times for %d distinct loops (per-replica %v)", total, len(refs), per)
	}
	busy := 0
	for _, n := range per {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d replica(s) compiled anything (per-replica %v): keyspace is not sharding", busy, per)
	}

	// Replays are owner-cache hits: zero new compilations anywhere.
	for _, ref := range refs {
		if _, _, werr := postCompile(t, c.front.URL, ref); werr != nil {
			t.Fatalf("replay %s: %v", ref, werr)
		}
	}
	if again, perAgain := c.compilations(); again != total {
		t.Fatalf("replay recompiled: %d -> %d (per-replica %v)", total, again, perAgain)
	}

	// Kill the busiest replica (one that owns keys, whatever ports the
	// listeners got): drain flips its /readyz, the listener closes, the
	// next probe marks it dead.
	dead := 0
	for i, n := range per {
		if n > per[dead] {
			dead = i
		}
	}
	c.srvs[dead].BeginDrain()
	c.tss[dead].Close()
	if ready := c.router.Probe(context.Background()); ready != 2 {
		t.Fatalf("probe after kill found %d replicas, want 2", ready)
	}

	before := c.router.Rehashes()
	for _, ref := range refs {
		res, status, werr := postCompile(t, c.front.URL, ref)
		if werr != nil {
			t.Fatalf("%s after replica loss: HTTP %d %v", ref, status, werr)
		}
		if got := scheduleKey(res); got != results[ref] {
			t.Fatalf("%s: rehashed schedule differs from original:\nwas %s\nnow %s", ref, results[ref], got)
		}
	}
	if c.router.Rehashes() == before {
		t.Fatal("no request was counted as rehashed after a replica died")
	}

	// The dead replica's keys re-homed: survivors compiled them fresh
	// (their caches never held the dead shard's loops), but nothing that
	// was already owned by a survivor recompiled.
	afterLoss, perLoss := c.compilations()
	moved := afterLoss - total
	if moved <= 0 {
		t.Fatalf("no key re-homed after replica loss (per-replica %v)", perLoss)
	}
	if moved > int64(len(refs)) {
		t.Fatalf("rehash recompiled %d keys for a %d-loop corpus", moved, len(refs))
	}

	// Router stays ready with survivors, and aggregated stats see the
	// whole surviving fleet.
	resp, err := http.Get(c.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz = %d with 2 live replicas", resp.StatusCode)
	}
	sresp, err := http.Get(c.front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var agg wire.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if want := afterLoss - perLoss[dead]; agg.Pipeline.Compilations != want {
		t.Fatalf("aggregated compilations %d, want %d (survivors only)", agg.Pipeline.Compilations, want)
	}
}

// TestRouterBatchShardsAcrossOwners: one batch envelope fans out to
// every owning replica and streams every item back exactly once.
func TestRouterBatchShardsAcrossOwners(t *testing.T) {
	c := newCluster(t)
	refs := loopRefs(t, 8)

	var reqs []string
	for _, ref := range refs {
		reqs = append(reqs, fmt.Sprintf(`{"v":1,"loop_ref":%q,"machine_ref":"4-cluster/B1/L1"}`, ref))
	}
	body := fmt.Sprintf(`{"v":1,"requests":[%s]}`, strings.Join(reqs, ","))
	resp, err := http.Post(c.front.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	seen := map[int]bool{}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var item wire.BatchItem
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("batch stream: %v", err)
		}
		if seen[item.Index] {
			t.Fatalf("batch item %d delivered twice", item.Index)
		}
		seen[item.Index] = true
		if item.Error != nil {
			t.Fatalf("batch item %d failed: %v", item.Index, item.Error)
		}
		if item.Result == nil {
			t.Fatalf("batch item %d has neither result nor error", item.Index)
		}
	}
	if len(seen) != len(refs) {
		t.Fatalf("batch returned %d items for %d requests", len(seen), len(refs))
	}
	if total, per := c.compilations(); total != int64(len(refs)) || func() int {
		n := 0
		for _, v := range per {
			if v > 0 {
				n++
			}
		}
		return n
	}() < 2 {
		t.Fatalf("batch sharding off: total=%d per-replica=%v", total, per)
	}
}

// TestRouterCapabilitiesUnion: the aggregated capability surface is the
// union of the fleet's, so capability routing and client preflight see
// everything the cluster can do.
func TestRouterCapabilitiesUnion(t *testing.T) {
	c := newCluster(t)
	resp, err := http.Get(c.front.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capabilities: HTTP %d", resp.StatusCode)
	}
	var agg wire.CapabilitiesResponse
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Schedulers) == 0 || len(agg.Machines) == 0 || agg.Loops == 0 {
		t.Fatalf("aggregated capabilities empty: %+v", agg)
	}
	if len(agg.Quarantined) != 0 {
		t.Fatalf("fresh fleet reports cluster-wide quarantine: %v", agg.Quarantined)
	}
}

// TestRouterProbeMarksDrainingReplicaDead: a draining replica (readyz
// 503, listener still up) leaves the routable set at the next probe —
// the drain race the readiness probe exists to close.
func TestRouterProbeMarksDrainingReplicaDead(t *testing.T) {
	c := newCluster(t)
	c.srvs[1].BeginDrain()
	if ready := c.router.Probe(context.Background()); ready != 2 {
		t.Fatalf("probe counted %d ready replicas with one draining, want 2", ready)
	}
	refs := loopRefs(t, 6)
	for _, ref := range refs {
		if _, status, werr := postCompile(t, c.front.URL, ref); werr != nil {
			t.Fatalf("%s with a draining replica: HTTP %d %v", ref, status, werr)
		}
	}
	if n := c.srvs[1].Pipeline().Stats().Compilations; n != 0 {
		t.Fatalf("draining replica still compiled %d requests", n)
	}
}

// TestRouterAndPeersAgree pins the one placement rule: the router and
// every replica's peer ring hash the graph fingerprint over the replica
// URLs.  A loop routed by loop_ref and the same loop routed inline land
// on one owner, which never asks a peer about it; a replica sent a key
// it does not own asks the owner and serves its answer.
func TestRouterAndPeersAgree(t *testing.T) {
	c := newCluster(t)
	refs := loopRefs(t, 12)
	for i, ref := range refs {
		loop, err := json.Marshal(c.router.loops[ref])
		if err != nil {
			t.Fatal(err)
		}
		bodies := []string{compileBody(ref),
			fmt.Sprintf(`{"v":1,"loop":%s,"machine_ref":"4-cluster/B1/L1"}`, loop)}
		if i%2 == 1 {
			bodies[0], bodies[1] = bodies[1], bodies[0]
		}
		for _, body := range bodies {
			resp, err := http.Post(c.front.URL+"/v1/compile", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d", ref, resp.StatusCode)
			}
		}
	}
	var peerAsks int64
	for _, srv := range c.srvs {
		st, err := srv.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		peerAsks += st.Service.Requests["cache"]
	}
	if peerAsks != 0 {
		t.Errorf("owners asked peers %d times; an owner must never ask", peerAsks)
	}
	total, per := c.compilations()
	if total != int64(len(refs)) {
		t.Fatalf("fleet compiled %d times for %d loops sent by ref and inline (per-replica %v)", total, len(refs), per)
	}

	owner := c.router.ring.Owner(c.router.loops[refs[0]].Graph.Fingerprint())
	other := 0
	for c.tss[other].URL == owner {
		other++
	}
	if _, status, werr := postCompile(t, c.tss[other].URL, refs[0]); werr != nil {
		t.Fatalf("direct compile on a non-owner: HTTP %d %v", status, werr)
	}
	if st := c.srvs[other].Pipeline().Stats(); st.PeerHits != 1 {
		t.Errorf("non-owner recorded %d peer hits, want 1", st.PeerHits)
	}
	if again, per := c.compilations(); again != total {
		t.Errorf("non-owner recompiled: %d -> %d (per-replica %v)", total, again, per)
	}
}

// TestFleetHoldsWhatOneReplicaCannot: the fleet's aggregate cache
// holds a working set that one replica's budget cannot.  The corpus
// at 4-cluster/B1/L1 is sized against a budget B it overflows by half.
// Sent twice to one daemon with budget B, the second pass hits nothing:
// an LRU under a cyclic scan larger than its budget has always just
// evicted the next key asked for.  Three peered replicas of budget B
// each behind the router split the set so every share fits (the ring
// members are fixed, so the split is too), and the second pass hits
// everything.
func TestFleetHoldsWhatOneReplicaCannot(t *testing.T) {
	refs := loopRefs(t, len(corpus.Index(corpus.SPECfp95())))

	// The working set's size, as the pipeline accounts it.
	probe := service.New(service.Config{Workers: 2})
	probeTS := httptest.NewServer(probe.Handler())
	defer probeTS.Close()
	sendAll(t, probeTS.URL, refs)
	working := probe.Pipeline().Stats().CachedBytes
	budget := working * 2 / 3

	hits := func(srvs []*service.Server) (n int64) {
		for _, srv := range srvs {
			n += srv.Pipeline().Stats().Hits
		}
		return n
	}
	// secondPassHitRate sends the set twice and returns the share of
	// the second pass answered from the pipelines' caches.
	secondPassHitRate := func(base string, srvs []*service.Server) float64 {
		sendAll(t, base, refs)
		before := hits(srvs)
		sendAll(t, base, refs)
		return float64(hits(srvs)-before) / float64(len(refs))
	}

	single := service.New(service.Config{Workers: 2, CacheBytes: budget})
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	singleRate := secondPassHitRate(singleTS.URL, []*service.Server{single})

	front, fleet := newPinnedFleet(t, budget)
	fleetRate := secondPassHitRate(front, fleet)

	t.Logf("%d loops, %d bytes against a %d-byte budget: second-pass hit rate single %.3f, fleet of 3 %.3f",
		len(refs), working, budget, singleRate, fleetRate)
	if fleetRate-singleRate < 0.2 {
		t.Errorf("fleet hit rate %.3f beats one replica's %.3f by %.3f, want at least 0.2",
			fleetRate, singleRate, fleetRate-singleRate)
	}
	if fleetRate < 0.95 {
		t.Errorf("fleet second-pass hit rate %.3f, want at least 0.95: each replica's share fits its budget",
			fleetRate)
	}
}

// newPinnedFleet boots three replicas with the given cache budget,
// peered as cmd/schedd -peers/-peer-self wire them, behind a router,
// and returns the router's URL.  The ring hashes replica URLs, and
// httptest picks fresh ports every run, so the members are fixed
// loopback URLs that the router's transport dials through to the real
// listeners: the corpus splits across the fleet the same way each run.
// Every routed key reaches its owner, which never asks a peer, so the
// replicas' own peer transport never dials the fixed URLs.
func newPinnedFleet(t *testing.T, cacheBytes int64) (string, []*service.Server) {
	t.Helper()
	urls := []string{"http://127.0.0.11", "http://127.0.0.12", "http://127.0.0.13"}
	dial := map[string]string{} // fixed member's host:port -> listener
	var reps []Replica
	var srvs []*service.Server
	for i, u := range urls {
		srv := service.New(service.Config{Workers: 2, CacheBytes: cacheBytes})
		pl, err := NewPeerLookup(PeerConfig{Self: u, Peers: urls})
		if err != nil {
			t.Fatal(err)
		}
		srv.Pipeline().SetPeerLookup(pl.Func())
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		dial[strings.TrimPrefix(u, "http://")+":80"] = ts.Listener.Addr().String()
		reps = append(reps, Replica{Name: fmt.Sprintf("s%d", i+1), URL: u})
		srvs = append(srvs, srv)
	}
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, dial[addr])
	}}
	t.Cleanup(tr.CloseIdleConnections)
	rt, err := NewRouter(RouterConfig{Replicas: reps, HTTP: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if ready := rt.Probe(context.Background()); ready != len(urls) {
		t.Fatalf("probe found %d/%d replicas ready", ready, len(urls))
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front.URL, srvs
}

// sendAll compiles every ref at base, failing on any error answer.
func sendAll(t *testing.T, base string, refs []string) {
	t.Helper()
	for _, ref := range refs {
		if _, status, werr := postCompile(t, base, ref); werr != nil {
			t.Fatalf("%s: HTTP %d %v", ref, status, werr)
		}
	}
}

// TestPoisonedCacheEntryRejected: an entry whose schedule breaks a
// dependence, re-encoded so its derived fields stay consistent, is
// refused both as a snapshot row and as a peer's answer — a fault in
// one replica cannot seed an illegal schedule into another.
func TestPoisonedCacheEntryRejected(t *testing.T) {
	l := corpus.Index(corpus.SPECfp95())["tomcatv.loop0"]
	cfg := machine.FourCluster(1, 1)
	res, err := core.Compile(l.Graph, &cfg, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	poisoned, sch := *res, *res.Schedule
	sch.Placements = slices.Clone(sch.Placements)
	broken := false
	for _, e := range sch.Graph.Edges() {
		if e.Distance == 0 && e.Latency > 0 {
			sch.Placements[e.To].Cycle = sch.Placements[e.From].Cycle + e.Latency - 1
			broken = true
			break
		}
	}
	if !broken {
		t.Fatal("tomcatv.loop0 has no intra-iteration dependence to break")
	}
	poisoned.Schedule = &sch
	const key = "poisoned-key"
	row, err := json.Marshal(wire.FromCacheEntry(pipeline.CacheEntry{Key: key, Res: &poisoned}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.DecodeCacheEntry(bytes.NewReader(row)); err == nil || !strings.Contains(err.Error(), "validate:") {
		t.Errorf("DecodeCacheEntry of a schedule that breaks a dependence: got %v, want a validate error", err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(row)
	}))
	defer peer.Close()
	if _, err := FetchCacheEntry(context.Background(), http.DefaultClient, peer.URL, key); err == nil || !strings.Contains(err.Error(), "validate:") {
		t.Errorf("FetchCacheEntry of a schedule that breaks a dependence: got %v, want a validate error", err)
	}
}
