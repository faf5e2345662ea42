package regpress

import (
	"strings"
	"testing"
)

// fuzzBytes hands out the fuzz input a byte at a time, zeros once it
// runs dry, so every input decodes to a complete operation sequence.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// lifetime decodes one lifetime for an II-slot table: a start within
// four IIs either side of zero and a length of up to eight IIs.
func (b *fuzzBytes) lifetime(ii int) Lifetime {
	start := (b.next()<<8|b.next())%(8*ii+1) - 4*ii
	return Lifetime{Start: start, End: start + (b.next()<<8|b.next())%(8*ii+1)}
}

// FuzzPressureTable drives a Table through a random II and a random
// Add/Sub/speculate sequence, checking every state against a per-slot
// model built from the Pressure oracle.  A Sub that would take a slot
// below zero must panic with the documented underflow; nothing else
// may panic.
func FuzzPressureTable(f *testing.F) {
	f.Add([]byte{0, 5, 3, 0, 0, 1, 0, 0, 9, 2, 0, 1, 0, 3})
	f.Add([]byte{1, 171, 8, 0, 0, 0, 1, 200, 2, 255, 16, 1, 0, 0, 2, 0, 2, 1, 2, 0, 30, 0, 40, 1, 0, 0})
	f.Add([]byte{2, 88, 2, 0, 3, 7, 0, 9, 2, 200, 0, 13, 1, 0, 0, 12, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		ii := 1 + (in.next()<<8|in.next())%700
		tab := NewTable(ii, in.next()%32)
		var sh Shadow
		want := make([]int, ii)
		var live []Lifetime
		for op := 0; len(in) > 0 && op < 64; op++ {
			switch in.next() % 4 {
			case 0: // Add
				lt := in.lifetime(ii)
				tab.Add(lt.Start, lt.End)
				addPressure(want, lt, 1)
				live = append(live, lt)
			case 1: // Sub of a live lifetime
				if len(live) == 0 {
					continue
				}
				i := in.next() % len(live)
				lt := live[i]
				tab.Sub(lt.Start, lt.End)
				addPressure(want, lt, -1)
				live = append(live[:i], live[i+1:]...)
			case 2: // Sub of an arbitrary interval: underflow panics
				lt := in.lifetime(ii)
				after := append([]int(nil), want...)
				addPressure(after, lt, -1)
				if minOf(after) < 0 {
					mustUnderflow(t, tab, lt)
					return // the table's state after a panic is unspecified
				}
				tab.Sub(lt.Start, lt.End)
				want = after
				live = nil // no longer a plain set of lifetimes
			case 3: // speculate
				sh.Snapshot(tab)
				spec := append([]int(nil), want...)
				for k := in.next() % 5; k > 0; k-- {
					lt := in.lifetime(ii)
					sh.Add(lt.Start, lt.End)
					addPressure(spec, lt, 1)
				}
				if got, w := sh.Max(), maxOf(spec); got != w {
					t.Fatalf("op %d: Shadow.Max() = %d, model %d", op, got, w)
				}
				if got, w := sh.Fits(), maxOf(spec) <= tab.Capacity(); got != w {
					t.Fatalf("op %d: Shadow.Fits() = %v, model %v", op, got, w)
				}
			}
			for s, p := range want {
				if tab.Slot(s) != p {
					t.Fatalf("op %d: slot %d = %d, model %d", op, s, tab.Slot(s), p)
				}
			}
			if got, w := tab.Max(), maxOf(want); got != w {
				t.Fatalf("op %d: Max() = %d, model %d", op, got, w)
			}
			if got, w := tab.Fits(), maxOf(want) <= tab.Capacity(); got != w {
				t.Fatalf("op %d: Fits() = %v, model %v", op, got, w)
			}
		}
	})
}

// addPressure adds sign times lt's Pressure to the per-slot model.
func addPressure(model []int, lt Lifetime, sign int) {
	for s, p := range Pressure([]Lifetime{lt}, len(model)) {
		model[s] += sign * p
	}
}

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func mustUnderflow(t *testing.T, tab *Table, lt Lifetime) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "underflow") {
			t.Fatalf("Sub(%d, %d) below zero: recovered %v, want the underflow panic", lt.Start, lt.End, r)
		}
	}()
	tab.Sub(lt.Start, lt.End)
}
