package regpress

import (
	"fmt"
	"math/rand"
	"testing"
)

// The Table must agree with the from-scratch Pressure oracle under any
// interleaving of adds and removes — that equivalence is what the
// scheduler's incremental register check rests on.

func tableEquals(t *testing.T, tab *Table, lts []Lifetime, ii int, ctx string) {
	t.Helper()
	want := Pressure(lts, ii)
	wantOver := 0
	for s, p := range want {
		if p != tab.Slot(s) {
			t.Fatalf("%s: slot %d = %d, oracle %d (lifetimes %v)", ctx, s, tab.Slot(s), p, lts)
		}
		if p > tab.Capacity() {
			wantOver++
		}
	}
	if (wantOver == 0) != tab.Fits() {
		t.Fatalf("%s: Fits() = %v, oracle over-count %d", ctx, tab.Fits(), wantOver)
	}
	if got, want := tab.Max(), MaxLive(lts, ii); got != want {
		t.Fatalf("%s: Max() = %d, oracle MaxLive %d", ctx, got, want)
	}
}

// randLifetime draws a lifetime for an II-slot table, mixing the shapes
// the block maxima must get right: short ranges straddling a 16-slot
// block edge, negative starts, and ranges wrapping the II several times.
func randLifetime(rng *rand.Rand, ii int) Lifetime {
	var lt Lifetime
	switch rng.Intn(4) {
	case 0: // around a block edge, possibly past II (wraparound)
		edge := blockSize * rng.Intn(ii/blockSize+2)
		lt.Start = edge - rng.Intn(blockSize+2)
		lt.End = edge + rng.Intn(blockSize+2)
	case 1: // negative start
		lt.Start = -rng.Intn(3*ii + 1)
		lt.End = lt.Start + rng.Intn(2*ii+2)
	case 2: // multi-wrap
		lt.Start = rng.Intn(4*ii+1) - 2*ii
		lt.End = lt.Start + ii*(1+rng.Intn(3)) + rng.Intn(ii)
	default:
		lt.Start = rng.Intn(2*ii+1) - ii/2
		lt.End = lt.Start + rng.Intn(ii+2)
	}
	if lt.End < lt.Start {
		lt.Start, lt.End = lt.End, lt.Start
	}
	return lt
}

// oracleIIs covers one-slot and sub-block tables, every block-boundary
// shape (exact multiples, one either side) and IIs in the hundreds,
// where the per-block maxima do the work.
var oracleIIs = []int{1, 2, 5, 9, 15, 16, 17, 31, 32, 33, 48, 100, 255, 256, 257, 427, 600}

func TestTableMatchesPressureOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ii := range oracleIIs {
		for trial := 0; trial < 12; trial++ {
			tab := NewTable(ii, 1+rng.Intn(6))
			var live []Lifetime
			for op := 0; op < 40; op++ {
				if len(live) > 0 && rng.Intn(3) == 0 {
					// Remove a random lifetime (LIFO not required by Table).
					i := rng.Intn(len(live))
					tab.Sub(live[i].Start, live[i].End)
					live = append(live[:i], live[i+1:]...)
				} else {
					lt := randLifetime(rng, ii)
					tab.Add(lt.Start, lt.End)
					live = append(live, lt)
				}
				tableEquals(t, tab, live, ii, fmt.Sprintf("II=%d trial %d op %d", ii, trial, op))
			}
		}
	}
}

func TestTableExtensionSplitsExactly(t *testing.T) {
	// Add [0, 3) then extend to [0, 11) via Add(3, 11): must equal one
	// lifetime [0, 11) — the additivity the scheduler's incremental
	// lifetime extensions rely on.
	tab := NewTable(4, 8)
	tab.Add(0, 3)
	tab.Add(3, 11)
	tableEquals(t, tab, []Lifetime{{Start: 0, End: 11}}, 4, "extension")
	tab.Sub(3, 11)
	tableEquals(t, tab, []Lifetime{{Start: 0, End: 3}}, 4, "rollback")
}

func TestTableResetReusesBacking(t *testing.T) {
	tab := NewTable(4, 2)
	tab.Add(-5, 9)
	tab.Reset(3)
	for s := 0; s < 3; s++ {
		if tab.Slot(s) != 0 {
			t.Fatalf("slot %d = %d after Reset, want 0", s, tab.Slot(s))
		}
	}
	if !tab.Fits() {
		t.Fatal("fresh table must fit")
	}
	tab.Add(0, 7) // II=3: 2 full wraps + 1 extra at slot 0
	tableEquals(t, tab, []Lifetime{{Start: 0, End: 7}}, 3, "after reset")
}

func TestTableUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Sub must panic")
		}
	}()
	NewTable(2, 4).Sub(0, 1)
}
