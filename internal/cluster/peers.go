// Daemon-side cache federation: the peer-lookup hook a schedd installs
// on its pipeline so a local miss costs one intra-cluster round trip
// before it costs a compile.

package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
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
	// Self is this daemon's own URL as it appears in Peers; it is
	// excluded from lookups (a daemon never asks itself).  May be empty
	// when Peers already lists only the others.
	Self string
	// Peers are the other replicas' base URLs (e.g.
	// "http://127.0.0.1:8181").  Order does not matter; the ring does.
	Peers []string
}

// PeerLookup resolves cache misses against cluster peers.  It
// implements pipeline.PeerLookupFunc via Lookup.
type PeerLookup struct {
	ring *Ring
}

// NewPeerLookup builds the federation hook, or nil (no error) when the
// config names no peers besides Self — a single daemon has nobody to
// ask, and a nil *PeerLookup keeps the pipeline's lookup unset.
func NewPeerLookup(cfg PeerConfig) (*PeerLookup, error) {
	var others []string
	for _, p := range cfg.Peers {
		if p = strings.TrimRight(p, "/"); p != "" && p != strings.TrimRight(cfg.Self, "/") {
			others = append(others, p)
		}
	}
	if len(others) == 0 {
		return nil, nil
	}
	ring, err := NewRing(others)
	if err != nil {
		return nil, err
	}
	return &PeerLookup{ring: ring}, nil
}

// Func returns the hook in the pipeline's shape; nil receiver, nil
// func, so callers can wire it unconditionally.
func (pl *PeerLookup) Func() pipeline.PeerLookupFunc {
	if pl == nil {
		return nil
	}
	return pl.Lookup
}

// Lookup asks the peer most likely to own key's fingerprint for the
// finished entry.  One peer, one bounded request: peers answer from
// cache only (the /v1/cache handler never compiles and never asks
// further), so lookups cannot cascade, and a miss or any failure
// simply reports false — the caller compiles.
func (pl *PeerLookup) Lookup(key string) (*core.Result, bool) {
	peer := pl.ring.Owner(pipeline.KeyFingerprint(key))
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
		strings.TrimRight(base, "/")+"/v1/cache/"+url.PathEscape(key), nil)
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
	var row wire.CacheEntry
	if err := wire.DecodeStrict(resp.Body, &row); err != nil {
		return pipeline.CacheEntry{}, fmt.Errorf("peer %s: %w", base, err)
	}
	e, err := row.Core()
	if err != nil {
		return pipeline.CacheEntry{}, fmt.Errorf("peer %s: %w", base, err)
	}
	if e.Key != key {
		return pipeline.CacheEntry{}, fmt.Errorf("peer %s answered key %q for %q", base, e.Key, key)
	}
	return e, nil
}
