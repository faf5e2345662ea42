package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

// update regenerates the golden fixtures: go test ./internal/wire -update
var update = flag.Bool("update", false, "rewrite golden wire fixtures")

// golden compares v's indented JSON against the committed fixture, or
// rewrites the fixture under -update.  A diff is a wire-format change:
// either fix the drift or bump Version and regenerate deliberately.
func golden(t *testing.T, name string, v any) []byte {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/wire -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s\n(a deliberate change needs a Version bump and -update)",
			name, got, want)
	}
	return got
}

// tomcatv0 returns the first corpus loop, the fixture workload.
func tomcatv0(t *testing.T) *corpus.Loop {
	t.Helper()
	suite := corpus.Trimmed([]string{"tomcatv"}, 1)
	if len(suite) != 1 || len(suite[0].Loops) != 1 {
		t.Fatal("trimmed corpus shape changed")
	}
	return suite[0].Loops[0]
}

// TestGoldenLoop pins the corpus-loop wire shape and checks a decoded
// loop is the same graph, fingerprint included.
func TestGoldenLoop(t *testing.T) {
	l := tomcatv0(t)
	data := golden(t, "loop_tomcatv0.json", l)

	var back corpus.Loop
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	if back.Graph.Fingerprint() != l.Graph.Fingerprint() {
		t.Error("decoded loop has a different fingerprint")
	}
	if back.Iters != l.Iters || back.Weight != l.Weight || back.Bench != l.Bench {
		t.Errorf("loop metadata drifted: %+v vs %+v", back, l)
	}
	if err := back.Graph.Validate(); err != nil {
		t.Error(err)
	}
	reenc, err := json.MarshalIndent(&back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(reenc, '\n'), data) {
		t.Error("loop did not round-trip byte-identically")
	}
}

// TestGoldenMachines pins every Table 1 configuration's wire shape and
// checks each decodes back to the exact in-process Config.
func TestGoldenMachines(t *testing.T) {
	cfgs := machine.Table1Configs()
	var ms []*Machine
	for _, c := range cfgs {
		ms = append(ms, FromConfig(c))
	}
	data := golden(t, "machines_table1.json", ms)

	var back []*Machine
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(cfgs) {
		t.Fatalf("decoded %d machines, want %d", len(back), len(cfgs))
	}
	for i, m := range back {
		c, werr := m.Config()
		if werr != nil {
			t.Fatalf("machine %d: %v", i, werr)
		}
		if !reflect.DeepEqual(c, cfgs[i]) {
			t.Errorf("machine %d did not round-trip:\n got %+v\nwant %+v", i, c, cfgs[i])
		}
		// machine_ref resolution must agree with the wire codec: the name
		// in the fixture resolves to the exact same configuration.
		byName, ok := machine.ConfigByName(c.Name)
		if !ok || !reflect.DeepEqual(byName, c) {
			t.Errorf("ConfigByName(%q) = %+v, %v; want the fixture config", c.Name, byName, ok)
		}
	}
	if _, ok := machine.ConfigByName("9-cluster/B9/L9"); ok {
		t.Error("ConfigByName resolved an unknown name")
	}
}

// TestGoldenHeteroMachine pins the heterogeneous layout's wire shape.
func TestGoldenHeteroMachine(t *testing.T) {
	c := machine.TwoCluster(1, 2)
	c.Name = "hetero-demo"
	c.Hetero = [][machine.NumFUClasses]int{{2, 2, 2}, {1, 1, 1}}
	data := golden(t, "machine_hetero.json", FromConfig(c))

	var back Machine
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	dec, werr := back.Config()
	if werr != nil {
		t.Fatal(werr)
	}
	want := c
	want.FUsPerCluster = [machine.NumFUClasses]int{} // hetero overrides; wire drops the unused mix
	if !reflect.DeepEqual(dec, want) {
		t.Errorf("hetero machine did not round-trip:\n got %+v\nwant %+v", dec, want)
	}
}

// TestGoldenOptions pins the options wire shape and round-trips it.
func TestGoldenOptions(t *testing.T) {
	opts := core.Options{
		Scheduler: core.Exact,
		Strategy:  core.UnrollAll,
		Factor:    2,
		Sched:     sched.Options{Policy: sched.PolicyFirstFit, MaxII: 40, Parallel: 4},
		Exact:     exact.Budget{MaxNodes: 12, MaxSteps: 500000, MaxII: 30},
	}
	data := golden(t, "options_full.json", FromOptions(opts))

	var back Options
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	dec, werr := back.Core()
	if werr != nil {
		t.Fatal(werr)
	}
	if !reflect.DeepEqual(dec, opts) {
		t.Errorf("options did not round-trip:\n got %+v\nwant %+v", dec, opts)
	}
}

// TestGoldenResultFellBack pins the result shape for a compilation that
// took the UnrollAll→NoUnroll fallback, FellBack and FailReason
// included — the exact telemetry a client must see.
func TestGoldenResultFellBack(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleFigure7(), Iters: 16, Weight: 1, Bench: "fixture"}
	p := pipeline.New(1)
	cfg := machine.FourCluster(1, 4)
	res, err := p.Compile(pipeline.Request{Loop: l, Cfg: cfg,
		Opts: core.Options{Strategy: core.UnrollAll, Factor: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack {
		t.Fatal("fixture compilation no longer falls back")
	}
	if res.Stages == nil {
		t.Fatal("fallback result carries no stage telemetry")
	}
	// Stage durations are wall-clock and cannot be pinned byte-level;
	// the stages shape has its own hand-built fixture
	// (result_stages.json).  Policy is deterministic and stays.
	res = cloneWithoutStages(res)
	w := FromResult(res)
	data := golden(t, "result_fellback.json", w)

	var back Result
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	if !back.FellBack || back.Decision == nil || back.Decision.FailReason == "" {
		t.Error("fallback telemetry lost on the wire")
	}
	if len(back.Placements) != l.Graph.NumNodes() {
		t.Errorf("%d placements for %d nodes", len(back.Placements), l.Graph.NumNodes())
	}
}

// TestGoldenResultExact pins the result shape for an oracle run with
// its proof metadata.
func TestGoldenResultExact(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleDotProduct(), Iters: 16, Weight: 1, Bench: "fixture"}
	cfg := machine.TwoCluster(1, 1)
	res, err := core.Compile(l.Graph, &cfg, &core.Options{Scheduler: core.Exact})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact == nil {
		t.Fatal("exact compile returned no proof metadata")
	}
	res = cloneWithoutStages(res)
	w := FromResult(res)
	data := golden(t, "result_exact.json", w)

	var back Result
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	if back.Exact == nil || back.Exact.LowerBound != res.Exact.LowerBound {
		t.Error("exact proof metadata lost on the wire")
	}
}

// cloneWithoutStages strips the wall-clock stage telemetry so a
// compiled result can be pinned byte-level.
func cloneWithoutStages(res *core.Result) *core.Result {
	c := *res
	c.Stages = nil
	return &c
}

// TestGoldenResultStages pins the stages/policy wire shape with a
// hand-built telemetry block (real stage durations are wall-clock and
// nondeterministic; the schedule itself is compiled and deterministic).
// This is the fixture that locks the v1 "stages" growth: the canonical
// four-stage set, the II trajectory, and a portfolio candidate list.
func TestGoldenResultStages(t *testing.T) {
	l := &corpus.Loop{Graph: ddg.SampleFigure7(), Iters: 16, Weight: 1, Bench: "fixture"}
	cfg := machine.FourCluster(1, 1)
	res, err := core.Compile(l.Graph, &cfg, &core.Options{Strategy: core.Portfolio})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Stages
	if got == nil {
		t.Fatal("portfolio result carries no stage telemetry")
	}
	if got.Policy != "portfolio" || got.Winner == "" || len(got.Candidates) == 0 {
		t.Fatalf("unexpected portfolio telemetry: %+v", got)
	}
	res = cloneWithoutStages(res)
	res.Stages = &engine.Telemetry{
		Scheduler: got.Scheduler,
		Policy:    got.Policy,
		Winner:    "unroll_all",
		Total:     10 * time.Millisecond,
		Stages: []engine.Stage{
			{Name: engine.StageAnalyze, Duration: 1 * time.Millisecond, Calls: 1},
			{Name: engine.StageUnroll, Duration: 2 * time.Millisecond, Calls: 2},
			{Name: engine.StageSchedule, Duration: 6 * time.Millisecond, Calls: got.Stages[2].Calls},
			{Name: engine.StageValidate, Duration: 1 * time.Millisecond, Calls: 1},
		},
		Attempts:   got.Attempts,
		Trajectory: got.Trajectory,
		// Which losing candidates completed before the winner pruned
		// them is timing-dependent, so the winner and candidate list are
		// a representative hand-built race outcome, not the live one.
		Candidates: []engine.Candidate{
			{Strategy: "no_unroll", IterationII: 4},
			{Strategy: "unroll_all", IterationII: 2.5, Won: true},
			{Strategy: "selective", Err: "context canceled"},
		},
	}
	data := golden(t, "result_stages.json", FromResult(res))

	var back Result
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	if back.Policy == "" || back.Stages == nil {
		t.Fatal("policy/stages lost on the wire")
	}
	if len(back.Stages.Stages) != 4 || back.Stages.Stages[0].Name != "analyze" {
		t.Errorf("canonical stage set drifted: %+v", back.Stages.Stages)
	}
	// v1 growth contract: a pre-stages client payload — the same result
	// without the new optional fields — must still decode strictly.
	old := FromResult(cloneWithoutStages(res))
	oldData, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	var oldBack Result
	if err := DecodeStrict(bytes.NewReader(oldData), &oldBack); err != nil {
		t.Fatalf("stages-free result no longer decodes: %v", err)
	}
}

// TestGoldenCompileRequest pins the full request envelope with an
// inline loop, inline machine and options.
func TestGoldenCompileRequest(t *testing.T) {
	g := ddg.SampleDotProduct()
	req := CompileRequest{
		V:    Version,
		Loop: &corpus.Loop{Graph: g, Iters: 32, Weight: 2, Bench: "client"},
		Machine: &Machine{
			Name: "custom-2c", Clusters: 2, FUs: &[3]int{2, 2, 2},
			Regs: 32, Buses: 1, BusLatency: 2,
		},
		Options:   &Options{Strategy: "selective"},
		TimeoutMS: 2000,
	}
	data := golden(t, "compile_request.json", req)

	var back CompileRequest
	if err := DecodeStrict(bytes.NewReader(data), &back); err != nil {
		t.Fatal(err)
	}
	if werr := CheckVersion(back.V); werr != nil {
		t.Fatal(werr)
	}
	if back.Loop.Graph.Fingerprint() != g.Fingerprint() {
		t.Error("inline loop fingerprint drifted through the envelope")
	}
}

// TestCheckVersion covers the three version outcomes.
func TestCheckVersion(t *testing.T) {
	if werr := CheckVersion(Version); werr != nil {
		t.Errorf("current version rejected: %v", werr)
	}
	if werr := CheckVersion(0); werr == nil || werr.Code != CodeBadRequest {
		t.Errorf("missing version: got %v, want %s", werr, CodeBadRequest)
	}
	if werr := CheckVersion(99); werr == nil || werr.Code != CodeUnsupportedVersion {
		t.Errorf("future version: got %v, want %s", werr, CodeUnsupportedVersion)
	}
}

// TestDecodeStrictRejects covers the strictness guarantees: unknown
// fields, trailing garbage, malformed graphs.
func TestDecodeStrictRejects(t *testing.T) {
	cases := []struct {
		name, body string
		into       func() any
	}{
		{"unknown field", `{"v":1,"loup_ref":"x"}`, func() any { return &CompileRequest{} }},
		{"trailing data", `{"v":1} {"v":1}`, func() any { return &CompileRequest{} }},
		// json.Decoder.More reports no more data before ']' and '}'.
		{"trailing brackets and garbage", `{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}]]garbage`,
			func() any { return &CompileRequest{} }},
		{"trailing bracket", `{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}]`,
			func() any { return &CompileRequest{} }},
		{"trailing brace", `{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}}`,
			func() any { return &CompileRequest{} }},
		{"trailing brace after a row", `{"key":"k"}}`, func() any { return &CacheEntry{} }},
		{"unknown op", `{"name":"g","nodes":[{"name":"a","op":"warp"}],"edges":[]}`,
			func() any { return &ddg.Graph{} }},
		{"unknown node field", `{"name":"g","nodes":[{"name":"a","op":"iadd","opp":"x"}],"edges":[]}`,
			func() any { return &ddg.Graph{} }},
		{"misspelled edge latency", `{"name":"g","nodes":[{"name":"a","op":"iadd"},{"name":"b","op":"iadd"}],"edges":[{"from":0,"to":1,"latncy":3,"kind":"true"}]}`,
			func() any { return &ddg.Graph{} }},
		{"unknown edge kind", `{"name":"g","nodes":[{"name":"a","op":"iadd"}],"edges":[{"from":0,"to":0,"latency":1,"kind":"psychic"}]}`,
			func() any { return &ddg.Graph{} }},
		{"edge out of range", `{"name":"g","nodes":[{"name":"a","op":"iadd"}],"edges":[{"from":0,"to":7,"latency":1,"kind":"true"}]}`,
			func() any { return &ddg.Graph{} }},
		{"distance-0 cycle", `{"name":"g","nodes":[{"name":"a","op":"iadd"},{"name":"b","op":"iadd"}],"edges":[{"from":0,"to":1,"latency":1,"kind":"true"},{"from":1,"to":0,"latency":1,"kind":"true"}]}`,
			func() any { return &ddg.Graph{} }},
	}
	for _, c := range cases {
		v := c.into()
		if err := DecodeStrict(strings.NewReader(c.body), v); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
		switch v.(type) {
		case *CompileRequest:
			if err := DecodeCompileRequest([]byte(c.body), new(CompileRequest)); err == nil {
				t.Errorf("%s: DecodeCompileRequest decoded without error", c.name)
			}
		case *ddg.Graph:
			body := `{"v":1,"loop":{"graph":` + c.body + `}}`
			if err := DecodeCompileRequest([]byte(body), new(CompileRequest)); err == nil {
				t.Errorf("%s: DecodeCompileRequest decoded an inline loop without error", c.name)
			}
		}
	}
	// Whitespace after the value is not trailing data.
	ok := "{\"v\":1,\"loop_ref\":\"tomcatv.loop0\"} \t\r\n"
	if err := DecodeStrict(strings.NewReader(ok), new(CompileRequest)); err != nil {
		t.Errorf("DecodeStrict rejects trailing whitespace: %v", err)
	}
	if err := DecodeCompileRequest([]byte(ok), new(CompileRequest)); err != nil {
		t.Errorf("DecodeCompileRequest rejects trailing whitespace: %v", err)
	}
}

// TestOptionsRejectUnknownNames covers each enum's unknown-name error
// and its wire code.
func TestOptionsRejectUnknownNames(t *testing.T) {
	cases := []struct {
		opts Options
		code string
	}{
		{Options{Scheduler: "magic"}, CodeUnknownScheduler},
		{Options{Strategy: "sometimes"}, CodeUnknownStrategy},
		{Options{Policy: "vibes"}, CodeUnknownPolicy},
		{Options{Factor: -1}, CodeInvalidOptions},
		// Resource-exhaustion guards: a huge II sizes the reservation
		// tables, a huge factor multiplies the graph — both must die at
		// the wire boundary, not in the scheduler's allocator.
		{Options{ForceII: MaxWireII + 1}, CodeInvalidOptions},
		{Options{MaxII: 1 << 30}, CodeInvalidOptions},
		{Options{Factor: MaxWireFactor + 1}, CodeInvalidOptions},
		{Options{Exact: &ExactBudget{MaxNodes: MaxWireExactNodes + 1}}, CodeInvalidOptions},
		{Options{Exact: &ExactBudget{MaxSteps: -1}}, CodeInvalidOptions},
		{Options{Exact: &ExactBudget{MaxII: MaxWireII + 1}}, CodeInvalidOptions},
		{Options{ParallelII: MaxWireParallelII + 1}, CodeInvalidOptions},
		{Options{ParallelII: -1}, CodeInvalidOptions},
	}
	for _, c := range cases {
		if _, werr := c.opts.Core(); werr == nil || werr.Code != c.code {
			t.Errorf("%+v: got %v, want code %s", c.opts, werr, c.code)
		}
	}
}

// TestMachineRejects covers invalid machine decodes.
func TestMachineRejects(t *testing.T) {
	if _, werr := (&Machine{Clusters: 2, Regs: 32, Buses: 1, BusLatency: 1}).Config(); werr == nil || werr.Code != CodeInvalidMachine {
		t.Errorf("machine without fus/hetero: got %v", werr)
	}
	bad := &Machine{Clusters: 0, FUs: &[3]int{1, 1, 1}, Regs: 16}
	if _, werr := bad.Config(); werr == nil || werr.Code != CodeInvalidMachine {
		t.Errorf("zero-cluster machine: got %v", werr)
	}
	both := &Machine{Clusters: 2, FUs: &[3]int{2, 2, 2},
		Hetero: [][3]int{{1, 0, 0}, {1, 0, 0}}, Regs: 16, Buses: 1, BusLatency: 1}
	if _, werr := both.Config(); werr == nil || werr.Code != CodeInvalidMachine {
		t.Errorf("fus+hetero together must be rejected, got %v", werr)
	}
}

// TestCheckLoopCaps covers the inline-loop size guards.
func TestCheckLoopCaps(t *testing.T) {
	big := ddg.New("big")
	for i := 0; i <= MaxWireLoopNodes; i++ {
		big.AddNode(fmt.Sprintf("n%d", i), machine.OpIAdd)
	}
	if werr := CheckLoop(&corpus.Loop{Graph: big}); werr == nil || werr.Code != CodeInvalidLoop {
		t.Errorf("oversize node count: got %v", werr)
	}
	dense := ddg.New("dense")
	a := dense.AddNode("a", machine.OpIAdd)
	b := dense.AddNode("b", machine.OpIAdd)
	for i := 0; i <= MaxWireLoopEdges; i++ {
		dense.AddEdge(a.ID, b.ID, 1, 1, ddg.DepTrue)
	}
	if werr := CheckLoop(&corpus.Loop{Graph: dense}); werr == nil || werr.Code != CodeInvalidLoop {
		t.Errorf("oversize edge count: got %v", werr)
	}
	if werr := CheckLoop(&corpus.Loop{Graph: ddg.SampleDotProduct()}); werr != nil {
		t.Errorf("sample loop rejected: %v", werr)
	}
	if werr := CheckLoop(&corpus.Loop{}); werr == nil || werr.Code != CodeInvalidLoop {
		t.Errorf("nil graph: got %v", werr)
	}
}
