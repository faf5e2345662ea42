// Daemon-side cache federation: the peer-lookup hook a schedd installs
// on its pipeline so a local miss costs one intra-cluster round trip
// before it costs a compile.

package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/wire"
)

// peerTimeout bounds one peer-cache lookup.  Every waiter of the
// missing entry is blocked behind the lookup, so it must stay an order
// of magnitude under a compile, not under a timeout-budget.
const peerTimeout = 250 * time.Millisecond

// PeerConfig configures a daemon's view of its cluster peers.
type PeerConfig struct {
	// Self is this daemon's own URL.  Listed in Peers, it is a ring
	// member like any other, and the daemon never asks about its keys.
	Self string
	// Peers are the replicas' base URLs (e.g. "http://127.0.0.1:8181"),
	// spelled as the router's -replicas spells them, in any order.
	Peers []string
}

// PeerLookup resolves cache misses against cluster peers.  It
// implements pipeline.PeerLookupFunc via Lookup.
type PeerLookup struct {
	ring *Ring
	self string
}

// NewPeerLookup builds the federation hook, or nil (no error) when the
// config names no peers besides Self — a single daemon has nobody to
// ask, and a nil *PeerLookup keeps the pipeline's lookup unset.
func NewPeerLookup(cfg PeerConfig) (*PeerLookup, error) {
	self := trimURL(cfg.Self)
	var members []string
	for _, p := range cfg.Peers {
		if p = trimURL(p); p != "" {
			members = append(members, p)
		}
	}
	if !slices.ContainsFunc(members, func(p string) bool { return p != self }) {
		return nil, nil
	}
	ring, err := NewRing(members)
	if err != nil {
		return nil, err
	}
	return &PeerLookup{ring: ring, self: self}, nil
}

// Func returns the hook in the pipeline's shape; nil receiver, nil
// func, so callers can wire it unconditionally.
func (pl *PeerLookup) Func() pipeline.PeerLookupFunc {
	if pl == nil {
		return nil
	}
	return pl.Lookup
}

// Lookup asks the owner of key's fingerprint for the finished entry;
// the owner itself reports false with no I/O, since only a failover
// puts its keys elsewhere.  Peers answer from cache only (the /v1/cache
// handler never compiles and never asks further), so lookups cannot
// cascade, and a miss or any failure reports false — the caller
// compiles.
func (pl *PeerLookup) Lookup(key string) (*core.Result, bool) {
	peer := pl.ring.Owner(pipeline.KeyFingerprint(key))
	if peer == pl.self {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), peerTimeout)
	defer cancel()
	e, err := FetchCacheEntry(ctx, http.DefaultClient, peer, key)
	if err != nil {
		return nil, false
	}
	return e.Res, true
}

// FetchCacheEntry performs one GET /v1/cache/{key} against a replica's
// base URL and rebuilds the entry, verifying the answer is for the key
// that was asked.
func FetchCacheEntry(ctx context.Context, hc *http.Client, base, key string) (pipeline.CacheEntry, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		trimURL(base)+"/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		return pipeline.CacheEntry{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return pipeline.CacheEntry{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return pipeline.CacheEntry{}, fmt.Errorf("peer %s: HTTP %d for %q", base, resp.StatusCode, key)
	}
	e, err := wire.DecodeCacheEntry(resp.Body)
	if err != nil {
		return pipeline.CacheEntry{}, fmt.Errorf("peer %s: %w", base, err)
	}
	if e.Key != key {
		return pipeline.CacheEntry{}, fmt.Errorf("peer %s answered key %q for %q", base, e.Key, key)
	}
	return e, nil
}
