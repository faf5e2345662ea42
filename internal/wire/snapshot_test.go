package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// snapshotFixture compiles a varied set of requests into a fresh
// pipeline: a plain BSA compile, an unrolled one (so the snapshot
// carries a decision and an unrolled graph) and an exact-oracle run
// (proof metadata).
func snapshotFixture(t *testing.T) (*pipeline.Pipeline, []pipeline.Request) {
	t.Helper()
	p := pipeline.New(1)
	reqs := []pipeline.Request{
		{Loop: &corpus.Loop{Graph: ddg.SampleFigure7(), Bench: "fixture"},
			Cfg: machine.FourCluster(1, 4)},
		{Loop: &corpus.Loop{Graph: ddg.SampleDotProduct(), Bench: "fixture"},
			Cfg:  machine.TwoCluster(1, 1),
			Opts: core.Options{Strategy: core.UnrollAll, Factor: 2}},
		{Loop: &corpus.Loop{Graph: ddg.SampleDotProduct(), Bench: "fixture"},
			Cfg:  machine.TwoCluster(1, 1),
			Opts: core.Options{Scheduler: core.Exact}},
	}
	for i, req := range reqs {
		if _, err := p.Compile(req); err != nil {
			t.Fatalf("fixture compile %d: %v", i, err)
		}
	}
	return p, reqs
}

// TestSnapshotRoundTripBytes proves save → load → save reproduces the
// snapshot byte for byte: every field FromResult derives (stage count,
// max_live, iteration_ii, causes, telemetry) survives the reverse
// conversion exactly.
func TestSnapshotRoundTripBytes(t *testing.T) {
	p, _ := snapshotFixture(t)

	var first bytes.Buffer
	n, err := SaveCache(&first, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(p.Export()); n != want {
		t.Fatalf("SaveCache wrote %d rows, Export has %d", n, want)
	}

	restored := pipeline.New(1)
	seeded, err := LoadCache(bytes.NewReader(first.Bytes()), restored)
	if err != nil {
		t.Fatal(err)
	}
	if seeded != n {
		t.Fatalf("LoadCache seeded %d of %d rows", seeded, n)
	}
	if got := restored.Stats().Seeded; got != int64(n) {
		t.Errorf("Stats().Seeded = %d, want %d", got, n)
	}

	var second bytes.Buffer
	if _, err := SaveCache(&second, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("snapshot not byte-identical after restore:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}

	// Loading the same snapshot again seeds nothing: live entries win.
	again, err := LoadCache(bytes.NewReader(first.Bytes()), restored)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("re-load seeded %d rows over live entries", again)
	}
}

// TestSnapshotWarmStartServesWithoutCompiling proves the warm-start
// premise: a restored pipeline answers the original requests from
// cache, never invoking the compiler.
func TestSnapshotWarmStartServesWithoutCompiling(t *testing.T) {
	p, reqs := snapshotFixture(t)
	var snap bytes.Buffer
	if _, err := SaveCache(&snap, p); err != nil {
		t.Fatal(err)
	}

	warm := pipeline.New(1)
	if _, err := LoadCache(bytes.NewReader(snap.Bytes()), warm); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		got, err := warm.Compile(req)
		if err != nil {
			t.Fatalf("warm compile %d: %v", i, err)
		}
		want, err := p.Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		g, w := FromResult(got), FromResult(want)
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("request %d: warm result differs from original:\n got %s\nwant %s", i, gb, wb)
		}
	}
	st := warm.Stats()
	if st.Compilations != 0 {
		t.Errorf("warm pipeline compiled %d times; want 0 (all cache hits)", st.Compilations)
	}
	if st.Hits != int64(len(reqs)) {
		t.Errorf("warm pipeline hits = %d, want %d", st.Hits, len(reqs))
	}
}

// TestSnapshotRejectsCorruptRows proves the loader's cross-checks: a
// row whose derived fields disagree with its placements, or whose
// enums are unknown, aborts the load with an error naming the line.
func TestSnapshotRejectsCorruptRows(t *testing.T) {
	p, _ := snapshotFixture(t)
	var snap bytes.Buffer
	if _, err := SaveCache(&snap, p); err != nil {
		t.Fatal(err)
	}
	row := strings.SplitN(snap.String(), "\n", 2)[0]

	corrupt := func(t *testing.T, old, new, wantErr string) {
		t.Helper()
		tampered := strings.Replace(row, old, new, 1)
		if tampered == row {
			t.Fatalf("fixture row does not contain %q", old)
		}
		fresh := pipeline.New(1)
		_, err := LoadCache(strings.NewReader(tampered), fresh)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("tampering %q -> %q: got error %v, want %q", old, new, err, wantErr)
		}
	}

	t.Run("stage_count", func(t *testing.T) {
		corrupt(t, `"stage_count":`, `"stage_count":9`, "stage count")
	})
	t.Run("unknown_field", func(t *testing.T) {
		corrupt(t, `"key":`, `"keey":`, "unknown field")
	})
	t.Run("graph_name", func(t *testing.T) {
		var e CacheEntry
		if err := json.Unmarshal([]byte(row), &e); err != nil {
			t.Fatal(err)
		}
		e.Result.Graph += "-renamed"
		fresh := pipeline.New(1)
		b, _ := json.Marshal(&e)
		if _, err := LoadCache(bytes.NewReader(append(b, '\n')), fresh); err == nil ||
			!strings.Contains(err.Error(), "names graph") {
			t.Errorf("renamed result graph: got %v, want graph-name mismatch", err)
		}
	})
	t.Run("truncated_placements", func(t *testing.T) {
		var e CacheEntry
		if err := json.Unmarshal([]byte(row), &e); err != nil {
			t.Fatal(err)
		}
		e.Result.Placements = e.Result.Placements[:1]
		fresh := pipeline.New(1)
		b, _ := json.Marshal(&e)
		if _, err := LoadCache(bytes.NewReader(append(b, '\n')), fresh); err == nil ||
			!strings.Contains(err.Error(), "placements") {
			t.Errorf("truncated placements: got %v, want placement-count mismatch", err)
		}
	})
}

// TestKeyFingerprintMatchesGraph pins the routing contract: the
// fingerprint prefix of a pipeline cache key is the loop graph's
// content fingerprint, so consistent-hash routing and the cache agree
// on identity.
func TestKeyFingerprintMatchesGraph(t *testing.T) {
	p, reqs := snapshotFixture(t)
	fps := map[string]bool{}
	for _, req := range reqs {
		fps[req.Loop.Graph.Fingerprint()] = true
	}
	for _, e := range p.Export() {
		if fp := pipeline.KeyFingerprint(e.Key); !fps[fp] {
			t.Errorf("key %q has fingerprint prefix %q, not any fixture graph's", e.Key, fp)
		}
	}
}

// TestEntryBytesTracksEncodedSize pins the pipeline's hand-estimated
// cache cost against the measured size of the same entry as a snapshot
// row: seeded alone into a fresh pipeline, every entry of corpus x
// {unified, 4-cluster/B1/L1} x {no_unroll, selective, portfolio} must
// cost 1.25-2.25x its encoded bytes (about 1.5-1.8x today).  Dropping
// a term the size of the retained graph from the estimate, or adding a
// Result field that grows the row as much without costing it, leaves
// the band.
func TestEntryBytesTracksEncodedSize(t *testing.T) {
	const lo, hi = 1.25, 2.25
	suite := corpus.SPECfp95()
	var reqs []pipeline.Request
	for _, name := range []string{"unified", "4-cluster/B1/L1"} {
		cfg, ok := machine.ConfigByName(name)
		if !ok {
			t.Fatalf("no machine %q", name)
		}
		for _, strat := range []core.Strategy{core.NoUnroll, core.SelectiveUnroll, core.Portfolio} {
			for _, b := range suite {
				for _, l := range b.Loops {
					reqs = append(reqs, pipeline.Request{Loop: l, Cfg: cfg, Opts: core.Options{Strategy: strat}})
				}
			}
		}
	}
	p := pipeline.New(0)
	p.CompileBatch(reqs)
	entries := p.Export()
	if len(entries) != len(reqs) {
		t.Fatalf("%d of %d compiles cached", len(entries), len(reqs))
	}
	minR, maxR := hi, lo
	for _, e := range entries {
		var row bytes.Buffer
		if err := EncodeCacheEntry(&row, e); err != nil {
			t.Fatal(err)
		}
		fresh := pipeline.New(1)
		fresh.Seed(e.Key, e.Res)
		r := float64(fresh.Stats().CachedBytes) / float64(row.Len())
		if r < lo || r > hi {
			t.Errorf("%s: estimated %d bytes for a %d-byte row (%.2fx, want %.2f-%.2fx)",
				e.Key, fresh.Stats().CachedBytes, row.Len(), r, lo, hi)
		}
		minR, maxR = min(minR, r), max(maxR, r)
	}
	t.Logf("%d entries: estimate / encoded row in %.2f-%.2fx", len(entries), minR, maxR)
}
