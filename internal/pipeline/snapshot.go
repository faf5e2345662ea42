// Cache snapshot and federation surface: the entry points cluster mode
// uses to make one process's compile cache portable.  Export and Seed
// move completed entries in and out of the LRU (the wire package
// serializes them as NDJSON for warm-start snapshots), Peek serves a
// single entry to a peer without compiling, and SetPeerLookup installs
// the miss path that asks the cluster before paying for a compile.
//
// Only successful completed entries travel: cached deterministic errors
// are cheap to rediscover and transient failures are never cached in
// the first place, so a snapshot or a peer answer is always a real
// schedule.

package pipeline

import (
	"sort"
	"strings"

	"repro/internal/core"
)

// CacheEntry is one completed, successful cache entry in transit:
// the cache key plus the compiled result.  The wire package owns the
// serialized form.
type CacheEntry struct {
	Key string
	Res *core.Result
}

// KeyFingerprint returns the content-fingerprint prefix of a pipeline
// cache key — the part consistent-hash routing shards on.  Keys are
// "<fingerprint>:<rest>"; a key without the separator returns whole.
func KeyFingerprint(key string) string {
	if i := strings.IndexByte(key, ':'); i >= 0 {
		return key[:i]
	}
	return key
}

// PeerLookupFunc resolves a cache key against the rest of the cluster.
// It runs on the detached fill goroutine of a cache miss, before the
// local compile; returning ok=true short-circuits the compile with the
// peer's result.  Implementations must bound their own time (one
// intra-cluster RTT, not a retry loop) — every waiter of the entry is
// blocked behind it.
type PeerLookupFunc func(key string) (*core.Result, bool)

// SetPeerLookup installs the peer-cache miss path; nil removes it.
// Call before serving traffic.
func (p *Pipeline) SetPeerLookup(fn PeerLookupFunc) { p.peerLookup = fn }

// Export snapshots every completed, successful cache entry, sorted by
// key so the serialized snapshot is deterministic.  In-flight entries
// and cached errors are skipped.
func (p *Pipeline) Export() []CacheEntry {
	var out []CacheEntry
	p.mu.Lock()
	for el := p.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.bytes == 0 { // in flight
			continue
		}
		if e.err != nil || e.res == nil {
			continue
		}
		out = append(out, CacheEntry{Key: e.key, Res: e.res})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Seed inserts a completed entry — a snapshot row on warm-start, or a
// prefilled result — reporting whether it was added.  An existing entry
// for the key (completed or in flight) wins: the cache never replaces
// live state with a snapshot.  The byte budget applies as usual, so
// seeding more than the LRU holds simply evicts the oldest seeds.
func (p *Pipeline) Seed(key string, res *core.Result) bool {
	if res == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[key]; ok {
		return false
	}
	e := &entry{key: key, done: make(chan struct{}), res: res}
	e.bytes = entryBytes(key, res)
	close(e.done)
	p.entries[key] = p.lru.PushFront(e)
	p.bytes += e.bytes
	p.seeded.Add(1)
	p.evictLocked()
	return true
}

// Peek returns the completed, successful entry for key without
// compiling anything — the read a peer's cache lookup performs.  The
// entry is touched (moved to most-recent) but the hit/miss counters are
// not: peer traffic must not masquerade as local cache performance.
func (p *Pipeline) Peek(key string) (*core.Result, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	select {
	case <-e.done:
	default:
		return nil, false // in flight: nothing to serve yet
	}
	if e.err != nil || e.res == nil {
		return nil, false
	}
	p.lru.MoveToFront(el)
	return e.res, true
}
