// Package cluster turns N independent schedd daemons into one
// fingerprint-sharded compile service.
//
// Three pieces compose:
//
//   - Ring: a consistent-hash ring (FNV-1a over virtual nodes) mapping a
//     loop graph's content fingerprint to the replica that owns it, so
//     identical loops always land on the shard whose cache has them, and
//     membership changes move only ~1/N of the keyspace.
//   - Router: the front door (cmd/schedrouter), a service.Backend behind
//     the same HTTP front end schedd uses.  It resolves each compile
//     request's loop (inline, or loop_ref through the corpus index
//     schedd uses), orders the live, capability-compatible replicas by
//     ring preference for that loop, and delegates the exchange to
//     internal/client — whose per-attempt endpoint rotation turns
//     replica loss into rehashing onto the next preferred shard rather
//     than failure.  Stats and capabilities aggregate across the fleet
//     in the ordinary wire shapes, so clients and the load harness see
//     one logical daemon.
//   - PeerLookup: the daemon-side federation hook.  A cache miss for a
//     key this daemon does not own asks the key's owner for the
//     finished entry (GET /v1/cache/{key}, one bounded intra-cluster
//     round trip) before paying for a compile; peers answer from cache
//     only, so lookups never cascade.
//
// Router and peers place a key by one rule: the ring's members are the
// replicas' base URLs (trailing "/" trimmed, see trimURL) and its key is
// the loop graph's content fingerprint, which is also the prefix of the
// pipeline cache key (pipeline.KeyFingerprint).  So the replica the
// router sends a loop to is the one every peer asks about it, and a
// daemon whose peer list names itself never asks about a key it owns:
// a miss there is a compile.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
)

// vnodesPerMember is the per-member virtual-node count: enough that
// 3-node rings split the keyspace within a few percent of evenly
// (share variation shrinks as 1/sqrt(vnodes)), cheap enough that ring
// construction stays well under a millisecond.
const vnodesPerMember = 256

// Ring is an immutable consistent-hash ring.  Build a new one on
// membership change — construction is cheap and an immutable ring
// needs no locking.
type Ring struct {
	members []string
	vnodes  []vnode
}

type vnode struct {
	hash   uint64
	member int
}

// hash64 is FNV-1a over s with a splitmix64 finalizer: fast,
// dependency-free, and stable across processes (the router and every
// daemon must agree on it).  Raw FNV avalanches poorly on the short,
// near-identical vnode labels ("a#17", "a#18"), clustering arcs badly
// enough to skew a 3-member ring 3x; the finalizer fixes the mixing
// without giving up FNV's stability.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// trimURL is the one spelling of a replica's base URL, as a ring member
// and as a request prefix: trailing "/" dropped.
func trimURL(u string) string { return strings.TrimRight(u, "/") }

// NewRing builds a ring over the given members (replica URLs, spelled
// by trimURL).  Duplicate or empty members are rejected: a duplicate
// would silently double that member's share.
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	r := &Ring{
		members: append([]string(nil), members...),
		vnodes:  make([]vnode, 0, len(members)*vnodesPerMember),
	}
	for i, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member at index %d", i)
		}
		if slices.Contains(members[:i], m) {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", m)
		}
		for v := 0; v < vnodesPerMember; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", m, v)), member: i})
		}
	}
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].hash != r.vnodes[b].hash {
			return r.vnodes[a].hash < r.vnodes[b].hash
		}
		// Hash ties (vanishingly rare) break deterministically by member
		// so every process orders the ring identically.
		return r.vnodes[a].member < r.vnodes[b].member
	})
	return r, nil
}

// Owner returns the member owning key: the first vnode clockwise from
// the key's hash, which heads Prefer's order.
func (r *Ring) Owner(key string) string { return r.Prefer(key)[0] }

// Prefer returns every member, ordered by ring preference for key: the
// owner first, then each distinct member in clockwise vnode order.
// This is the failover order — when the owner is down or incapable,
// the next preferred member is the one that inherits the key under
// rehashing, so retries land where the keyspace has moved.
func (r *Ring) Prefer(key string) []string {
	out := make([]string, 0, len(r.members))
	taken := make([]bool, len(r.members))
	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	for i := 0; i < len(r.vnodes) && len(out) < len(r.members); i++ {
		m := r.vnodes[(start+i)%len(r.vnodes)].member
		if !taken[m] {
			taken[m] = true
			out = append(out, r.members[m])
		}
	}
	return out
}
