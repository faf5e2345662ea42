package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/loadgen"
)

func corpusBytes(t *testing.T, loops []*corpus.Loop) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := loadgen.WriteCorpus(&buf, loops); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gridLoops(g *grid) []*corpus.Loop {
	var out []*corpus.Loop
	for _, b := range g.suite {
		out = append(out, b.Loops...)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !bytes.Equal(corpusBytes(t, gridLoops(newGrid())), corpusBytes(t, gridLoops(newGrid()))) {
		t.Error("paper-grid: two builds of the grid differ")
	}
	for _, sh := range []*serveShape{serveHot, serveChurn, clusterRoute} {
		a, err := sh.makeInputs(7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sh.makeInputs(7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sh.makeInputs(8, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ab, bb, cb := corpusBytes(t, a.loops), corpusBytes(t, b.loops), corpusBytes(t, c.loops)
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: seed 7 gave two different corpora", sh.name)
		}
		if bytes.Equal(ab, cb) {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", sh.name)
		}
		for i := 0; i < 50; i++ {
			ra, rb := a.request(i), b.request(i)
			ja, _ := json.Marshal(&ra)
			jb, _ := json.Marshal(&rb)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("%s: request %d differs between two seed-7 inputs", sh.name, i)
			}
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		got, ok := workloads[w.Name]
		switch {
		case !ok:
			t.Errorf("workload %s is not implemented", w.Name)
		case got.why != w.Why:
			t.Errorf("workload %s: why differs from the code's", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, printed as %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, printed as %+v", i, m, perLayer[i])
		}
	}
}

func TestRenderPrintsEveryMetricWithUnit(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		rep := newReport()
		rep.attempted = 1
		for i, d := range defs {
			rep.metrics[d.Name] = float64(i) + 0.5
		}
		out, err := render(rep, traced)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range defs {
			if got := out.Metrics[d.Name]; got.Unit != d.Unit || got.Value != float64(i)+0.5 {
				t.Errorf("%s printed as %+v", d.Name, got)
			}
		}
		delete(rep.metrics, defs[0].Name)
		if _, err := render(rep, traced); err == nil {
			t.Errorf("render accepted a run missing %s", defs[0].Name)
		}
	}
}

func TestAttributeSumsToRoot(t *testing.T) {
	// root [0,100) with a child [10,60) holding two overlapping
	// grandchildren [20,40) and [30,50), plus an orphan.
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "child", Start: 10, End: 60},
		{ID: 3, Parent: 2, Req: 1, Name: "leaf", Start: 20, End: 40},
		{ID: 4, Parent: 2, Req: 1, Name: "leaf", Start: 30, End: 50},
		{ID: 5, Parent: 9, Req: 1, Name: "orphan", Start: 0, End: 100},
	}
	l := attribute(spans)
	want := map[string]time.Duration{"root": 50, "child": 20, "leaf": 30}
	var sum time.Duration
	for name, st := range l.layers {
		sum += st.self
		if st.self != want[name] {
			t.Errorf("%s self = %d, want %d", name, st.self, want[name])
		}
	}
	if sum != 100 || l.ops != 1 || l.wall != 100 {
		t.Errorf("self times sum to %d over %d ops (wall %d), want 100 over 1", sum, l.ops, l.wall)
	}
}

// TestSmokeEveryWorkload runs every workload briefly, untraced and
// traced, against freshly built daemons: each must pass its output
// check and print every metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons and runs every workload")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"schedd", "schedrouter"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "repro/cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	for _, name := range []string{"paper-grid", "serve-hot", "serve-churn", "cluster-route"} {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 1, seconds: 2 * time.Second, trace: traced, bin: bin, workdir: t.TempDir(), procs: runtime.GOMAXPROCS(0)}
			rep, err := workloads[name].run(context.Background(), e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if len(rep.problems) > 0 || rep.failed > 0 {
				t.Errorf("%s (traced %v): %d failed; %s", name, traced, rep.failed, strings.Join(rep.problems, "; "))
			}
			if _, err := render(rep, traced); err != nil {
				t.Errorf("%s (traced %v): %v", name, traced, err)
			}
		}
	}
}
