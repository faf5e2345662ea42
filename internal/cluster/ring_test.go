package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fingerprint-%d", i)
	}
	return out
}

// TestRingDistribution proves the vnode count spreads a 3-member ring
// within ±25% of an even split over a realistic keyspace.
func TestRingDistribution(t *testing.T) {
	members := []string{"a", "b", "c"}
	r, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 30000
	for _, k := range keys(n) {
		counts[r.Owner(k)]++
	}
	want := n / len(members)
	for _, m := range members {
		got := counts[m]
		if got < want*3/4 || got > want*5/4 {
			t.Errorf("member %s owns %d keys, want %d +/- 25%% (distribution %v)", m, got, want, counts)
		}
	}
}

// TestRingRebalance proves membership change moves ~1/N of the
// keyspace: adding a 4th member to a 3-ring moves about 1/4 of keys
// (all to the newcomer), and removing a member moves only the removed
// member's keys.
func TestRingRebalance(t *testing.T) {
	ks := keys(30000)
	three, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	four, err := NewRing([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}

	moved, movedElsewhere := 0, 0
	for _, k := range ks {
		was, is := three.Owner(k), four.Owner(k)
		if was != is {
			moved++
			if is != "d" {
				movedElsewhere++
			}
		}
	}
	// The newcomer's share is ~1/N give or take vnode variance; the
	// disaster this guards against is naive modulo hashing, which
	// reshuffles (N-1)/N of the keyspace on every membership change.
	want := len(ks) / 4
	if moved < want/2 || moved > want*3/2 {
		t.Errorf("join moved %d of %d keys, want ~%d (1/N)", moved, len(ks), want)
	}
	if movedElsewhere != 0 {
		t.Errorf("join moved %d keys between surviving members; joins must only move keys to the newcomer", movedElsewhere)
	}

	two, err := NewRing([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		was, is := three.Owner(k), two.Owner(k)
		if was != "c" && was != is {
			t.Fatalf("removing c moved key %q from %s to %s; leaves must only move the leaver's keys", k, was, is)
		}
	}
}

// TestRingPreferIsRehashOrder proves Prefer's failover contract: the
// first entry is the owner, every member appears exactly once, and the
// second preference is exactly who inherits the key when the owner
// leaves the ring — so retrying down the preference list lands where
// rehashing moved the keyspace.
func TestRingPreferIsRehashOrder(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	r, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(2000) {
		pref := r.Prefer(k)
		if len(pref) != len(members) {
			t.Fatalf("Prefer(%q) = %v, want all %d members", k, pref, len(members))
		}
		seen := map[string]bool{}
		for _, m := range pref {
			if seen[m] {
				t.Fatalf("Prefer(%q) = %v repeats %s", k, pref, m)
			}
			seen[m] = true
		}
		if pref[0] != r.Owner(k) {
			t.Fatalf("Prefer(%q) starts with %s, Owner is %s", k, pref[0], r.Owner(k))
		}

		var survivors []string
		for _, m := range members {
			if m != pref[0] {
				survivors = append(survivors, m)
			}
		}
		without, err := NewRing(survivors)
		if err != nil {
			t.Fatal(err)
		}
		if got := without.Owner(k); got != pref[1] {
			t.Fatalf("key %q: owner-loss rehashes to %s, but Prefer says %s", k, got, pref[1])
		}
	}
}

// TestRingRejectsBadMembership pins the constructors' validation: the
// ring's, and the router's, whose members are the trimmed replica URLs.
func TestRingRejectsBadMembership(t *testing.T) {
	for _, members := range [][]string{nil, {"a", ""}, {"a", "b", "a"}} {
		if _, err := NewRing(members); err == nil {
			t.Errorf("NewRing(%v) accepted invalid membership", members)
		}
	}
	for _, reps := range [][]Replica{
		nil,
		{{Name: "s1", URL: "http://a:1"}, {Name: "s2"}},
		{{Name: "s1", URL: "http://a:1"}, {Name: "s2", URL: "http://a:1/"}},
	} {
		if _, err := NewRouter(RouterConfig{Replicas: reps}); err == nil {
			t.Errorf("NewRouter(%v) accepted invalid replicas", reps)
		}
	}
}

// TestRingDeterministicAcrossConstruction proves two independently
// built rings agree on every owner — the property router and daemons
// rely on to agree without coordination.
func TestRingDeterministicAcrossConstruction(t *testing.T) {
	a, _ := NewRing([]string{"x", "y", "z"})
	b, _ := NewRing([]string{"x", "y", "z"})
	for _, k := range keys(5000) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("rings disagree on %q: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
	}
}
