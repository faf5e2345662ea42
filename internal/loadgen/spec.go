// Package loadgen generates the synthetic loop corpora the load tests
// send: a parameterized generator that synthesizes DDG families at
// scale on top of ddg.Synth, an NDJSON corpus format so a generated
// workload reproduces exactly across processes, and WaitReady, the
// /readyz poll a driver runs before it starts the clock.
//
// The pattern follows elastic-package's `benchmark generate-corpus` →
// rally-track flow: one generator and one driver.  This package is the
// generator; perfbench (the repo's benchmark module) is the driver, and
// `schedd -prefill` warms a daemon from a corpus file `loadgen gen`
// wrote.
package loadgen

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/ddg"
)

// Spec parameterizes one generated corpus.  Every field is a
// deterministic input: the same spec yields the same loops in the same
// order with byte-identical NDJSON.
type Spec struct {
	// Count is the number of loops to generate.
	Count int `json:"count"`
	// MinNodes and MaxNodes bound each loop body's operation count.
	MinNodes int `json:"min_nodes"`
	MaxNodes int `json:"max_nodes"`
	// RecurrenceDensity, ExtraEdgeDensity and ClusterAffinity are the
	// ddg.SynthSpec knobs, applied to every loop.
	RecurrenceDensity float64 `json:"recurrence_density"`
	ExtraEdgeDensity  float64 `json:"extra_edge_density"`
	ClusterAffinity   float64 `json:"cluster_affinity"`
	// MinTrip and MaxTrip bound the trip count (corpus.Loop.Iters);
	// zero values mean 16..256.
	MinTrip int `json:"min_trip,omitempty"`
	MaxTrip int `json:"max_trip,omitempty"`
	// Seed drives every random draw.
	Seed uint64 `json:"seed"`
	// Prefix names the loops ("<prefix>.g<i>"); "" means "synth".
	Prefix string `json:"prefix,omitempty"`
}

// withDefaults resolves the zero values.
func (s Spec) withDefaults() Spec {
	if s.Prefix == "" {
		s.Prefix = "synth"
	}
	if s.MinTrip <= 0 {
		s.MinTrip = 16
	}
	if s.MaxTrip <= 0 {
		s.MaxTrip = 256
	}
	return s
}

// Validate rejects an unusable spec.
func (s Spec) Validate() error {
	s = s.withDefaults()
	switch {
	case s.Count <= 0:
		return fmt.Errorf("loadgen: spec count %d not positive", s.Count)
	case s.MinNodes < 2:
		return fmt.Errorf("loadgen: min nodes %d below 2", s.MinNodes)
	case s.MaxNodes < s.MinNodes:
		return fmt.Errorf("loadgen: max nodes %d below min nodes %d", s.MaxNodes, s.MinNodes)
	case s.MaxTrip < s.MinTrip:
		return fmt.Errorf("loadgen: max trip %d below min trip %d", s.MaxTrip, s.MinTrip)
	}
	// The per-graph knobs are validated by ddg.SynthSpec; probe once so
	// a bad density fails here, before a million-loop generation loop.
	probe := ddg.SynthSpec{
		Seed:              s.Seed,
		Nodes:             s.MinNodes,
		RecurrenceDensity: s.RecurrenceDensity,
		ExtraEdgeDensity:  s.ExtraEdgeDensity,
		ClusterAffinity:   s.ClusterAffinity,
	}
	return probe.Validate()
}

// Each synthesizes the corpus one loop at a time, calling yield for
// loop i as soon as it exists and retaining nothing — the streaming
// form that keeps a million-loop generation in constant memory.  The
// draw order is identical to Generate's (one master RNG, three draws
// per loop), so yielded loop i is byte-for-byte the loop Generate
// would put at index i.  A yield error stops the run and is returned
// as-is.
func (s Spec) Each(yield func(i int, l *corpus.Loop) error) error {
	if err := s.Validate(); err != nil {
		return err
	}
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(int64(s.Seed)))
	for i := 0; i < s.Count; i++ {
		nodes := s.MinNodes + rng.Intn(s.MaxNodes-s.MinNodes+1)
		graphSeed := rng.Uint64()
		iters := s.MinTrip + rng.Intn(s.MaxTrip-s.MinTrip+1)
		g, err := ddg.Synth(ddg.SynthSpec{
			Name:              fmt.Sprintf("%s.g%d", s.Prefix, i),
			Seed:              graphSeed,
			Nodes:             nodes,
			RecurrenceDensity: s.RecurrenceDensity,
			ExtraEdgeDensity:  s.ExtraEdgeDensity,
			ClusterAffinity:   s.ClusterAffinity,
		})
		if err != nil {
			return fmt.Errorf("loadgen: loop %d: %w", i, err)
		}
		if err := yield(i, &corpus.Loop{
			Graph:  g,
			Iters:  iters,
			Weight: 1,
			Bench:  s.Prefix,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Generate synthesizes the whole corpus in memory: Count loops, each
// an independent ddg.Synth graph whose size, trip count and per-graph
// seed are drawn from a master RNG seeded by Spec.Seed.  For corpora
// that should not be materialized (the "1M loops" regime), stream with
// Each or StreamCorpus instead.
func (s Spec) Generate() ([]*corpus.Loop, error) {
	loops := make([]*corpus.Loop, 0, s.Count)
	err := s.Each(func(_ int, l *corpus.Loop) error {
		loops = append(loops, l)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return loops, nil
}
