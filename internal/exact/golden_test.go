package exact

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/machine"
)

// update regenerates the oracle golden: go test ./internal/exact -update
var update = flag.Bool("update", false, "rewrite the oracle search golden")

// TestOracleGolden pins the oracle's search, not just its answers: one
// line per (loop, machine) run over the trimmed corpus (the first loop
// of every benchmark) on every Table 1 machine, with the II, the proof
// flag, the lower bound and the number of enumerated placements, or the
// error text.  Steps counts the choices of every expanded node, so a
// change to what Choices enumerates, or in what order the search walks
// it, moves this file even when every II stays put.
func TestOracleGolden(t *testing.T) {
	var names []string
	for _, p := range corpus.Profiles() {
		names = append(names, p.Name)
	}
	budget := Budget{MaxNodes: 16, MaxSteps: 60_000}
	var got bytes.Buffer
	fmt.Fprintf(&got, "# exact.Schedule, budget MaxNodes=%d MaxSteps=%d; regenerate: go test ./internal/exact -run TestOracleGolden -update\n",
		budget.MaxNodes, budget.MaxSteps)
	for _, b := range corpus.Trimmed(names, 1) {
		for _, l := range b.Loops {
			for _, cfg := range machine.Table1Configs() {
				fmt.Fprintf(&got, "%s %s: ", l.Graph.Name, cfg.Name)
				r, err := Schedule(l.Graph, &cfg, &budget)
				if err != nil {
					fmt.Fprintf(&got, "error: %v\n", err)
					continue
				}
				fmt.Fprintf(&got, "II=%d proved=%v lower=%d steps=%d\n",
					r.Schedule.II, r.Proved, r.LowerBound, r.Steps)
			}
		}
	}

	path := filepath.Join("testdata", "oracle_trimmed.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/exact -run TestOracleGolden -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("oracle search drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
