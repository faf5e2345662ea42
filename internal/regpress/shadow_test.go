package regpress

import (
	"fmt"
	"math/rand"
	"testing"
)

// A Shadow over a live table must answer exactly what the from-scratch
// oracle says about the union of the live and the speculated lifetimes,
// and must leave the live table untouched.
func TestShadowMatchesPressureOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sh Shadow
	verdicts := map[bool]int{}
	for _, ii := range oracleIIs {
		for trial := 0; trial < 12; trial++ {
			tab := NewTable(ii, 1+rng.Intn(10))
			var live []Lifetime
			for step := 0; step < 20; step++ {
				// Move the live state: mostly adds, some removals.
				if len(live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					tab.Sub(live[i].Start, live[i].End)
					live = append(live[:i], live[i+1:]...)
				} else {
					lt := randLifetime(rng, ii)
					tab.Add(lt.Start, lt.End)
					live = append(live, lt)
				}

				sh.Snapshot(tab)
				union := append([]Lifetime(nil), live...)
				for k := rng.Intn(6); k > 0; k-- {
					lt := randLifetime(rng, ii)
					sh.Add(lt.Start, lt.End)
					union = append(union, lt)
				}
				ctx := fmt.Sprintf("II=%d trial %d step %d", ii, trial, step)
				want := MaxLive(union, ii)
				if got := sh.Max(); got != want {
					t.Fatalf("%s: Shadow.Max() = %d, oracle MaxLive %d (live %v, union %v)", ctx, got, want, live, union)
				}
				if got, want := sh.Fits(), want <= tab.Capacity(); got != want {
					t.Fatalf("%s: Shadow.Fits() = %v, oracle %v (capacity %d)", ctx, got, want, tab.Capacity())
				}
				verdicts[want <= tab.Capacity()]++
				tableEquals(t, tab, live, ii, ctx+" (live table after speculation)")
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("speculations must both fit and overflow: %v", verdicts)
	}
}

// Fits must not depend on whether Max was asked first (Max is cached).
func TestShadowFitsIndependentOfMaxCache(t *testing.T) {
	tab := NewTable(40, 2)
	tab.Add(0, 20)
	tab.Add(10, 30)
	var sh Shadow
	sh.Snapshot(tab)
	sh.Add(15, 18)
	if sh.Fits() {
		t.Fatal("three overlapping lifetimes on a 2-register table must not fit")
	}
	if got := sh.Max(); got != 3 {
		t.Fatalf("Max() = %d, want 3", got)
	}
	sh.Snapshot(tab)
	if !sh.Fits() || sh.Max() != 2 {
		t.Fatalf("fresh snapshot: Fits() = %v, Max() = %d, want true, 2", sh.Fits(), sh.Max())
	}
	sh.Add(35, 38)
	if !sh.Fits() || sh.Max() != 2 {
		t.Fatalf("disjoint add: Fits() = %v, Max() = %d, want true, 2", sh.Fits(), sh.Max())
	}
	sh.Add(-2, 80) // 82 cycles: two full wraps plus slots 38 and 39
	if sh.Fits() || sh.Max() != 4 {
		t.Fatalf("multi-wrap add: Fits() = %v, Max() = %d, want false, 4", sh.Fits(), sh.Max())
	}
}
