// Command loadgen synthesizes parameterized DDG corpora:
//
//	loadgen gen -count 1000 -min-nodes 8 -max-nodes 64 -extra-edges 0.5 -o corpus.ndjson
//
// gen writes the corpus as NDJSON (one loop per line, the wire's inline
// loop shape); the same spec always produces byte-identical output, so
// a corpus file in a bug report reproduces exactly.  `schedd -prefill`
// precompiles such a file at boot.  Load is driven by perfbench, the
// repo's benchmark module, which generates its corpora in-process from
// the same loadgen.Spec.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/loadgen"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "gen" {
		fmt.Fprintln(os.Stderr, `usage: loadgen gen [flags]
Run "loadgen gen -h" for its flags.`)
		os.Exit(2)
	}
	if err := runGen(os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen gen: %v\n", err)
		os.Exit(1)
	}
}

// runGen synthesizes a corpus and writes it as NDJSON.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	s := &loadgen.Spec{}
	fs.IntVar(&s.Count, "count", 256, "loops to generate")
	fs.IntVar(&s.MinNodes, "min-nodes", 8, "minimum operations per loop body")
	fs.IntVar(&s.MaxNodes, "max-nodes", 48, "maximum operations per loop body")
	fs.Float64Var(&s.RecurrenceDensity, "recurrence", 0.25, "fraction of nodes in loop-carried recurrence chains [0,1]")
	fs.Float64Var(&s.ExtraEdgeDensity, "extra-edges", 0.5, "extra dependence edges per node (>= 0)")
	fs.Float64Var(&s.ClusterAffinity, "affinity", 0.6, "probability an edge stays community-local [0,1]")
	fs.IntVar(&s.MinTrip, "min-trip", 16, "minimum trip count")
	fs.IntVar(&s.MaxTrip, "max-trip", 256, "maximum trip count")
	fs.Uint64Var(&s.Seed, "seed", 1, "corpus seed (same spec + seed = byte-identical NDJSON)")
	fs.StringVar(&s.Prefix, "prefix", "synth", "loop name prefix")
	out := fs.String("o", "-", "output path (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Stream: each loop is marshalled and written as it is synthesized,
	// so -count 1000000 runs in constant memory with the same bytes a
	// materialized Generate would produce.
	n, err := loadgen.StreamCorpus(w, *s)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loadgen: wrote %d loops\n", n)
	return nil
}
