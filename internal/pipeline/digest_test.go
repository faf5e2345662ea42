package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/machine"
)

// paperGridDigest is the sha256 of every paper-grid compile's outcome,
// as written by TestPaperGridDigest.  A scheduler change that is meant
// to be a pure speed-up must leave it untouched.
const paperGridDigest = "1e3b63478cfbcffe936dbef3eb474fe24535e9bceb4e9d3b31a09c1cfa398f01"

// TestPaperGridDigest compiles the paper's evaluation grid — every
// SPECfp95 loop on every Table 1 machine under BSA without unrolling,
// with unconditional and with selective unrolling, and under the
// Nystrom-Eichenberger baseline — and hashes what each compile
// decided: II, unroll factor, placements, transfers, the failure-cause
// histogram, the unroll decision (which embeds the text of a failed
// unrolled search's *sched.Error), the fallback flag and any error.
func TestPaperGridDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole paper grid")
	}
	reqs := paperGrid(t)
	h := sha256.New()
	for i, r := range New(0).CompileBatch(reqs) {
		req := reqs[i]
		fmt.Fprintf(h, "%s|%s|%s|%s\n", req.Loop.Graph.Name, req.Cfg.Name, req.Opts.Scheduler, req.Opts.Strategy)
		if r.Err != nil {
			fmt.Fprintf(h, "err %s\n", r.Err)
			continue
		}
		res := r.Result
		s := res.Schedule
		fmt.Fprintf(h, "ii %d factor %d fellback %v buslimited %v causes %v\n",
			s.II, res.Factor, res.FellBack, s.BusLimited, s.Causes)
		fmt.Fprintf(h, "decision %s\n", res.Decision)
		for _, p := range s.Placements {
			fmt.Fprintf(h, "p %d %d %d %d\n", p.Node, p.Cluster, p.FU, p.Cycle)
		}
		for _, tr := range s.Transfers {
			fmt.Fprintf(h, "t %d %d %d %d %d\n", tr.Producer, tr.From, tr.To, tr.Bus, tr.Start)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paperGridDigest {
		t.Fatalf("paper-grid digest %s, want %s: a compile's outcome changed", got, paperGridDigest)
	}
}

// BenchmarkPaperGrid times one cold pass over the grid TestPaperGridDigest
// hashes, on a fresh one-worker pipeline per iteration: the in-process
// number behind perfbench's paper-grid workload, without its pass order
// or telemetry.  The graphs are shared across iterations, so every
// pass after the first finds their memoized analyses (fingerprint, SMS
// order) warm, as perfbench's passes do.
func BenchmarkPaperGrid(b *testing.B) {
	reqs := paperGrid(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(1).CompileBatch(reqs) // a compile's error is part of the grid's outcome
	}
}

// paperGrid builds the paper's evaluation grid: every SPECfp95 loop on
// every Table 1 machine under BSA without unrolling, with unconditional
// and with selective unrolling, and under the Nystrom-Eichenberger
// baseline — 2880 requests.
func paperGrid(tb testing.TB) []Request {
	flavours := []core.Options{
		{Scheduler: core.BSA, Strategy: core.NoUnroll},
		{Scheduler: core.BSA, Strategy: core.UnrollAll},
		{Scheduler: core.BSA, Strategy: core.SelectiveUnroll},
		{Scheduler: core.NystromEichenberger, Strategy: core.NoUnroll},
	}
	var reqs []Request
	for _, bm := range corpus.SPECfp95() {
		for _, l := range bm.Loops {
			for _, cfg := range machine.Table1Configs() {
				for _, opts := range flavours {
					reqs = append(reqs, Request{Loop: l, Cfg: cfg, Opts: opts})
				}
			}
		}
	}
	if len(reqs) != 2880 {
		tb.Fatalf("grid has %d compiles, want 2880", len(reqs))
	}
	return reqs
}
