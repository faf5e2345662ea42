package unroll

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/sched"
)

func TestSelectiveSkipsUnifiedMachine(t *testing.T) {
	uni := machine.Unified()
	res, err := Selective(ddg.SampleDotProduct(), &uni, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision.Unrolled || res.Decision.Factor != 1 {
		t.Errorf("unified machine unrolled: %+v", res.Decision)
	}
}

func TestSelectiveSkipsNonBusLimitedLoops(t *testing.T) {
	// The dot product fits one cluster: never bus-limited, never unrolled.
	cfg := machine.TwoCluster(1, 1)
	res, err := Selective(ddg.SampleDotProduct(), &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision.BusLimited {
		t.Errorf("dot product flagged bus-limited")
	}
	if res.Decision.Unrolled {
		t.Errorf("non-bus-limited loop was unrolled: %+v", res.Decision)
	}
}

func TestSelectiveUnrollsFigure7(t *testing.T) {
	// Figure 7's worked example with a 2-cycle bus (the paper notes
	// unrolling hides the communication latency "even if the latency of
	// the bus was 2 cycles").  The non-unrolled loop is bus-limited — a
	// communication occupies both bus slots of an II=2 kernel — so the
	// whole body collapses into one cluster at II=3; unrolling by 2
	// restores two-cluster execution at II=4, i.e. 2 cycles per original
	// iteration.
	g := ddg.SampleFigure7()
	cfg := machine.TwoCluster(1, 2)
	plain, err := sched.ScheduleGraph(g, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.BusLimited {
		t.Fatalf("figure 7 not bus-limited at L=2 (II=%d, MinII=%d)", plain.II, plain.MinII)
	}
	res, err := Selective(g, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Unrolled {
		t.Fatalf("figure 7 not unrolled: %v", res.Decision)
	}
	perIterPlain := float64(plain.II)
	perIterUnrolled := float64(res.Schedule.II) / 2
	if perIterUnrolled > perIterPlain {
		t.Errorf("unrolled per-iteration II %.1f worse than plain %d", perIterUnrolled, plain.II)
	}
	if err := sched.Validate(res.Schedule); err != nil {
		t.Errorf("unrolled schedule invalid: %v", err)
	}
}

func TestSelectiveEstimateMatchesPaperExample(t *testing.T) {
	// Figure 6 arithmetic on the Figure 7 loop: U=2 clusters; the
	// distance-2 recurrence is a multiple of U and drops out, leaving the
	// distance-1 dependence -> NDepsNotMult=1, comneeded=2; one 2-cycle
	// bus -> cycneeded=4; the unrolled loop's MinII is 4 (the recurrence
	// ratio doubles per copy), so 4 <= 4 admits the unroll.
	g := ddg.SampleFigure7()
	if got := g.DepsNotMultiple(2); got != 1 {
		t.Errorf("DepsNotMultiple(2) = %d, want 1", got)
	}
	cfg := machine.TwoCluster(1, 2)
	if got := g.Unroll(2).MinII(&cfg); got != 4 {
		t.Errorf("unrolled MinII = %d, want 4", got)
	}
	res, err := Selective(g, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.BusLimited {
		t.Fatal("figure 7 not bus-limited at L=2")
	}
	if res.Decision.ComNeeded != 2 {
		t.Errorf("ComNeeded = %d, want 2", res.Decision.ComNeeded)
	}
	if res.Decision.CycNeeded != 4 {
		t.Errorf("CycNeeded = %d, want 4", res.Decision.CycNeeded)
	}
	if res.Decision.UnrolledMinII != 4 {
		t.Errorf("UnrolledMinII = %d, want 4", res.Decision.UnrolledMinII)
	}
}

func TestDecisionString(t *testing.T) {
	cases := []Decision{
		{BusLimited: false, Factor: 1},
		{BusLimited: true, Unrolled: false, ComNeeded: 8, CycNeeded: 16, UnrolledMinII: 4},
		{BusLimited: true, Unrolled: true, Factor: 4, ComNeeded: 4, CycNeeded: 4, UnrolledMinII: 8},
	}
	for _, d := range cases {
		if d.String() == "" {
			t.Errorf("empty Decision string for %+v", d)
		}
	}
}

func TestSelectiveReducesIterationIIOnBusBoundLoop(t *testing.T) {
	// The stencil on 4 clusters with one slow bus: heavy internal traffic
	// makes the non-unrolled schedule bus-limited; unrolled-by-4
	// iterations run nearly independently.
	g := ddg.SampleStencil()
	cfg := machine.FourCluster(1, 2)
	plain, err := sched.ScheduleGraph(g, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Selective(g, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainPerIter := float64(plain.II)
	selPerIter := float64(res.Schedule.II) / float64(res.Decision.Factor)
	if selPerIter > plainPerIter {
		t.Errorf("selective made things worse: %.2f vs %.2f (decision %v)",
			selPerIter, plainPerIter, res.Decision)
	}
}

// TestSelectiveRecordsRescheduleFailure is the regression test for the
// swallowed unrolled-reschedule error: when the estimate says unroll
// but the full schedule fails, the Decision must explain why unrolling
// was abandoned instead of silently keeping the original schedule.
func TestSelectiveRecordsRescheduleFailure(t *testing.T) {
	// Figure 7 on the 2-cluster/2-cycle-bus machine passes the estimate
	// and normally unrolls (TestSelectiveUnrollsFigure7).  Inject a
	// scheduler that fails on exactly the unrolled graph.
	orig := scheduleFn
	defer func() { scheduleFn = orig }()
	scheduleFn = func(g *ddg.Graph, cfg *machine.Config, opts *sched.Options) (*sched.Schedule, error) {
		if g.UnrollFactor > 1 {
			return nil, errors.New("injected: unrolled body rejected")
		}
		return sched.ScheduleGraph(g, cfg, opts)
	}

	cfg := machine.TwoCluster(1, 2)
	res, err := Selective(ddg.SampleFigure7(), &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Decision
	if d.Unrolled || d.Factor != 1 {
		t.Fatalf("injected failure still unrolled: %+v", d)
	}
	if !strings.Contains(d.FailReason, "injected: unrolled body rejected") {
		t.Errorf("FailReason = %q, want the injected error", d.FailReason)
	}
	if s := d.String(); !strings.Contains(s, "injected: unrolled body rejected") ||
		!strings.Contains(s, "estimate passed") {
		t.Errorf("Decision.String() = %q does not explain the abandonment", s)
	}
	if res.Schedule.Graph.UnrollFactor != 1 {
		t.Error("fallback schedule is not the original loop's")
	}
}

// TestSelectiveNoFailReasonOnCleanPaths pins FailReason to the failure
// path only.
func TestSelectiveNoFailReasonOnCleanPaths(t *testing.T) {
	for _, cfg := range []machine.Config{machine.Unified(), machine.TwoCluster(1, 2)} {
		res, err := Selective(ddg.SampleFigure7(), &cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision.FailReason != "" {
			t.Errorf("%s: clean path has FailReason %q", cfg.Name, res.Decision.FailReason)
		}
	}
}
