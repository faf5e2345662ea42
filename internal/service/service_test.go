package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/wire"
)

// ddgSample is the inline-loop workload of the handler tests.
func ddgSample() *ddg.Graph { return ddg.SampleDotProduct() }

// newTestServer boots a Server on httptest with small limits.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and returns the response.
func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// wantError asserts the response carries the wire error shape with the
// given status and code, and returns the error.
func wantError(t *testing.T, resp *http.Response, status int, code string) *wire.Error {
	t.Helper()
	if resp.StatusCode != status {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	var er wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("non-JSON error body: %v", err)
	}
	if er.V != wire.Version {
		t.Errorf("error response v = %d, want %d", er.V, wire.Version)
	}
	if er.Error == nil || er.Error.Code != code {
		t.Fatalf("error = %+v, want code %s", er.Error, code)
	}
	if er.Error.Message == "" {
		t.Error("error has no message")
	}
	return er.Error
}

// wantResult asserts a 200 CompileResponse and returns the result.
func wantResult(t *testing.T, resp *http.Response) *wire.Result {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want 200 (body %s)", resp.StatusCode, body)
	}
	var cr wire.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.V != wire.Version || cr.Result == nil {
		t.Fatalf("response = %+v, want v%d with a result", cr, wire.Version)
	}
	return cr.Result
}

// TestCompileByRef is the happy path: corpus loop, Table 1 machine.
func TestCompileByRef(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"4-cluster/B1/L1"}`)
	res := wantResult(t, resp)
	if res.II < res.MinII || res.MinII < 1 {
		t.Errorf("II %d / MinII %d out of order", res.II, res.MinII)
	}
	l := corpus.Index(corpus.SPECfp95())["tomcatv.loop0"]
	if len(res.Placements) != l.Graph.NumNodes() {
		t.Errorf("%d placements for %d nodes", len(res.Placements), l.Graph.NumNodes())
	}
	for _, ml := range res.MaxLive {
		if ml > machine.FourCluster(1, 1).RegsPerCluster {
			t.Errorf("max_live %v exceeds the register file", res.MaxLive)
		}
	}
}

// TestCompileInline posts a full inline loop and machine and checks
// options routing (exact scheduler → proof metadata on the wire).
func TestCompileInline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loop, err := json.Marshal(&corpus.Loop{Graph: ddgSample(), Bench: "inline"})
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"v":1,"loop":%s,"machine":{"clusters":2,"fus":[2,2,2],"regs":32,"buses":1,"bus_latency":1},"options":{"scheduler":"exact"}}`, loop)
	res := wantResult(t, post(t, ts.URL+"/v1/compile", body))
	if res.Exact == nil {
		t.Error("exact scheduler returned no proof metadata")
	}
	if res.II < res.MinII {
		t.Errorf("II %d below MinII %d", res.II, res.MinII)
	}
}

// TestCompileMalformedJSON asserts 400 + bad_request for junk bodies,
// trailing data, and each way an inline loop's graph fails the strict
// decode.
func TestCompileMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inline := func(graph string) string {
		return `{"v":1,"loop":{"graph":` + graph + `},"machine_ref":"unified"}`
	}
	const two = `{"name":"a","op":"iadd"},{"name":"b","op":"fadd"}`
	edges := func(e string) string {
		return inline(`{"name":"g","nodes":[` + two + `],"edges":[` + e + `]}`)
	}
	valid := edges(`{"from":0,"to":1,"latency":1,"kind":"true"}`)
	wantResult(t, post(t, ts.URL+"/v1/compile", valid)) // the base the inline cases break
	for _, body := range []string{
		`{`, `[]`, `{"v":1,"loop_ref":}`, `{"v":1,"bogus_field":true}`,
		valid + ` {}`, // trailing data
		// Trailing bytes a json.Decoder.More check lets through.
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}]]garbage`,
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}]`,
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}}`,
		inline(`{"name":"g","nodes":[{"name":"a","op":"iadd","opp":"x"}],"edges":[]}`),                   // unknown node field
		edges(`{"from":0,"to":1,"latncy":3,"kind":"true"}`),                                              // unknown edge field
		inline(`{"name":"g","nodes":[` + two + `],"edges":[],"egdes":[]}`),                               // unknown graph field
		inline(`{"name":"g","nodes":[{"name":"a","op":"warp"}],"edges":[]}`),                             // unknown op
		edges(`{"from":0,"to":1,"latency":1,"kind":"psychic"}`),                                          // unknown edge kind
		edges(`{"from":0,"to":7,"latency":1,"kind":"true"}`),                                             // edge out of range
		edges(`{"from":0,"to":1,"latency":1,"distance":-1,"kind":"true"}`),                               // negative distance
		edges(`{"from":0,"to":1,"latency":-1,"kind":"true"}`),                                            // negative latency
		edges(`{"from":0,"to":1,"latency":1,"kind":"true"},{"from":1,"to":0,"latency":1,"kind":"true"}`), // distance-0 cycle
		edges(`{"from":0,"to":1,"latency":1.5,"kind":"true"}`),                                           // fraction in an int
		edges(`{"from":0,"to":1,"latency":1e3,"kind":"true"}`),                                           // exponent in an int
		edges(`{"from":"0","to":1,"latency":1,"kind":"true"}`),                                           // string for an int
	} {
		wantError(t, post(t, ts.URL+"/v1/compile", body), http.StatusBadRequest, wire.CodeBadRequest)
	}
}

// TestCompileVersion asserts the version gate on both endpoints.
func TestCompileVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wantError(t, post(t, ts.URL+"/v1/compile", `{"loop_ref":"tomcatv.loop0","machine_ref":"unified"}`),
		http.StatusBadRequest, wire.CodeBadRequest)
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":9,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}`),
		http.StatusBadRequest, wire.CodeUnsupportedVersion)
	wantError(t, post(t, ts.URL+"/v1/batch", `{"v":9,"requests":[]}`),
		http.StatusBadRequest, wire.CodeUnsupportedVersion)
}

// TestCompileUnknownRefs asserts 404 + specific codes for unknown loop
// and machine references.
func TestCompileUnknownRefs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":1,"loop_ref":"nothere.loop9","machine_ref":"unified"}`),
		http.StatusNotFound, wire.CodeUnknownLoop)
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"9-cluster"}`),
		http.StatusNotFound, wire.CodeUnknownMachine)
}

// TestCompileUnknownEnums asserts 400 + specific codes for bad
// scheduler / strategy / policy names.
func TestCompileUnknownEnums(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := `{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified","options":%s}`
	wantError(t, post(t, ts.URL+"/v1/compile", fmt.Sprintf(base, `{"scheduler":"magic"}`)),
		http.StatusBadRequest, wire.CodeUnknownScheduler)
	wantError(t, post(t, ts.URL+"/v1/compile", fmt.Sprintf(base, `{"strategy":"sometimes"}`)),
		http.StatusBadRequest, wire.CodeUnknownStrategy)
	wantError(t, post(t, ts.URL+"/v1/compile", fmt.Sprintf(base, `{"policy":"vibes"}`)),
		http.StatusBadRequest, wire.CodeUnknownPolicy)
}

// TestCompileInvalidInline asserts invalid inline loops and machines
// are rejected with their codes.
func TestCompileInvalidInline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":1,"loop":{"graph":{"name":"g","nodes":[],"edges":[]}},"machine_ref":"unified"}`),
		http.StatusBadRequest, wire.CodeInvalidLoop)
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":1,"loop_ref":"tomcatv.loop0","machine":{"clusters":2,"fus":[2,2,2],"regs":32}}`),
		http.StatusBadRequest, wire.CodeInvalidMachine)
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":1,"machine_ref":"unified"}`),
		http.StatusBadRequest, wire.CodeBadRequest)
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":1,"loop_ref":"tomcatv.loop0"}`),
		http.StatusBadRequest, wire.CodeBadRequest)
	wantError(t, post(t, ts.URL+"/v1/compile", `{"v":1,"loop_ref":"a","loop":{"graph":{"name":"g","nodes":[],"edges":[]}},"machine_ref":"unified"}`),
		http.StatusBadRequest, wire.CodeBadRequest)
}

// TestCompileOversizeBody asserts 413 + body_too_large at the cap.
func TestCompileOversizeBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big := fmt.Sprintf(`{"v":1,"loop_ref":"%s","machine_ref":"unified"}`, strings.Repeat("x", 4096))
	wantError(t, post(t, ts.URL+"/v1/compile", big),
		http.StatusRequestEntityTooLarge, wire.CodeBodyTooLarge)
}

// TestCompileDeadlineExceeded injects a slow compile and asserts 504 +
// deadline_exceeded, and that the deadline counter ticks.
func TestCompileDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Compile: func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
			time.Sleep(300 * time.Millisecond)
			return &core.Result{Factor: 1}, nil
		},
	})
	start := time.Now()
	wantError(t, post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified","timeout_ms":20}`),
		http.StatusGatewayTimeout, wire.CodeDeadlineExceeded)
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("deadline response took %v, want ~20ms", took)
	}
	if st := s.serviceStats(); st.Deadlines != 1 {
		t.Errorf("Deadlines = %d, want 1", st.Deadlines)
	}
}

// TestCompileUnschedulable asserts a compile failure surfaces as 422.
func TestCompileUnschedulable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One cluster, one FU of each class, one register: MaxLive cannot fit.
	body := `{"v":1,"loop_ref":"fpppp.loop0","machine":{"clusters":1,"fus":[1,1,1],"regs":1}}`
	wantError(t, post(t, ts.URL+"/v1/compile", body),
		http.StatusUnprocessableEntity, wire.CodeUnschedulable)
}

// TestCompileOverCapacity saturates admission (1 in flight, no queue)
// and asserts the second request gets 429 while the first completes.
func TestCompileOverCapacity(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		MaxInflight: 1,
		QueueDepth:  -1, // no queue: reject as soon as the slot is busy
		Compile: func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
			<-release
			return core.Compile(l.Graph, cfg, &opts)
		},
	})
	first := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
			strings.NewReader(`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}`))
		if err != nil {
			t.Error(err)
			close(first)
			return
		}
		first <- resp
	}()
	// Wait until the first request holds the slot.
	for i := 0; i < 200 && s.m.inflight.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	wantError(t, post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"swim.loop0","machine_ref":"unified"}`),
		http.StatusTooManyRequests, wire.CodeOverCapacity)
	close(release)
	if resp := <-first; resp != nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first request: status %d, want 200", resp.StatusCode)
		}
	}
	if st := s.serviceStats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestBatchStreamsNDJSON drives /v1/batch with a mix of good and bad
// items and checks the stream: one line per request, completion order,
// per-item errors in the wire shape, every index answered exactly once.
func TestBatchStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"v":1,"requests":[
		{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"},
		{"v":1,"loop_ref":"missing.loop0","machine_ref":"unified"},
		{"v":1,"loop_ref":"swim.loop0","machine_ref":"2-cluster/B1/L1","options":{"strategy":"unroll_all"}}
	]}`
	resp := post(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	seen := map[int]wire.BatchItem{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item wire.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if item.V != wire.Version {
			t.Errorf("item v = %d, want %d", item.V, wire.Version)
		}
		if _, dup := seen[item.Index]; dup {
			t.Errorf("index %d answered twice", item.Index)
		}
		seen[item.Index] = item
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("got %d items, want 3", len(seen))
	}
	for _, i := range []int{0, 2} {
		if seen[i].Result == nil || seen[i].Error != nil {
			t.Errorf("item %d: want a result, got %+v", i, seen[i])
		}
	}
	if seen[1].Error == nil || seen[1].Error.Code != wire.CodeUnknownLoop {
		t.Errorf("item 1: want %s, got %+v", wire.CodeUnknownLoop, seen[1])
	}
	if seen[2].Result.Decision == nil {
		t.Error("unroll_all item lost its decision")
	}
}

// TestBatchWiderThanAdmission asserts one batch never trips its own
// items into over_capacity: with two admission slots and no queue, a
// 30-item batch must still answer every index with a result, because
// the handler's worker pool is no wider than the gate.
func TestBatchWiderThanAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 2, QueueDepth: -1})
	var sb strings.Builder
	sb.WriteString(`{"v":1,"requests":[`)
	refs := []string{"tomcatv", "swim", "mgrid", "hydro2d", "applu"}
	for i := 0; i < 30; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"v":1,"loop_ref":"%s.loop%d","machine_ref":"unified"}`, refs[i%len(refs)], i%3)
	}
	sb.WriteString(`]}`)
	resp := post(t, ts.URL+"/v1/batch", sb.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var item wire.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatal(err)
		}
		if item.Error != nil {
			t.Errorf("item %d: %v", item.Index, item.Error)
		}
		n++
	}
	if n != 30 {
		t.Errorf("got %d items, want 30", n)
	}
}

// TestBatchItemVersionChecked asserts each batch item passes the same
// version gate as /v1/compile: a wrong or missing inner "v" becomes a
// per-item wire error, not a silent compile.
func TestBatchItemVersionChecked(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"v":1,"requests":[
		{"v":99,"loop_ref":"tomcatv.loop0","machine_ref":"unified"},
		{"loop_ref":"tomcatv.loop0","machine_ref":"unified"},
		{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}
	]}`
	resp := post(t, ts.URL+"/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	seen := map[int]wire.BatchItem{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var item wire.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			t.Fatal(err)
		}
		seen[item.Index] = item
	}
	if seen[0].Error == nil || seen[0].Error.Code != wire.CodeUnsupportedVersion {
		t.Errorf("item 0 (v:99) = %+v, want %s", seen[0], wire.CodeUnsupportedVersion)
	}
	if seen[1].Error == nil || seen[1].Error.Code != wire.CodeBadRequest {
		t.Errorf("item 1 (no v) = %+v, want %s", seen[1], wire.CodeBadRequest)
	}
	if seen[2].Result == nil {
		t.Errorf("item 2 (v:1) = %+v, want a result", seen[2])
	}
}

// TestCompileRejectsHugeOptions asserts the wire-boundary resource
// caps reach the endpoint: a request that would size gigabyte tables
// is a 400, never a compile.
func TestCompileRejectsHugeOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wantError(t, post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified","options":{"force_ii":1000000000}}`),
		http.StatusBadRequest, wire.CodeInvalidOptions)
	wantError(t, post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified","options":{"strategy":"unroll_all","factor":100000000}}`),
		http.StatusBadRequest, wire.CodeInvalidOptions)
	// Per-knob-legal values whose product would still explode the graph:
	// an inline loop under the node cap times the max factor crosses the
	// unrolled-size cap and must die in resolution, not the scheduler.
	g := ddg.New("wide")
	prev := g.AddNode("n0", machine.OpIAdd)
	for i := 1; i < wire.MaxWireUnrolledNodes/wire.MaxWireFactor+1; i++ {
		n := g.AddNode(fmt.Sprintf("n%d", i), machine.OpIAdd)
		g.AddTrueDep(prev.ID, n.ID, 0)
		prev = n
	}
	loop, err := json.Marshal(&corpus.Loop{Graph: g, Bench: "inline"})
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, post(t, ts.URL+"/v1/compile",
		fmt.Sprintf(`{"v":1,"loop":%s,"machine_ref":"unified","options":{"strategy":"unroll_all","factor":%d}}`, loop, wire.MaxWireFactor)),
		http.StatusBadRequest, wire.CodeInvalidOptions)
}

// TestBatchRejectsEmpty asserts an empty batch is a 400.
func TestBatchRejectsEmpty(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wantError(t, post(t, ts.URL+"/v1/batch", `{"v":1,"requests":[{"v":1,"loop_ref":"swim.loop0","machine_ref":"unified"}]}]`),
		http.StatusBadRequest, wire.CodeBadRequest)
	wantError(t, post(t, ts.URL+"/v1/batch", `{"v":1,"requests":[{"v":1,"loop_ref":"swim.loop0","machine_ref":"unified","bogus":1}]}`),
		http.StatusBadRequest, wire.CodeBadRequest)
	wantError(t, post(t, ts.URL+"/v1/batch", `{"v":1,"requests":[]}`),
		http.StatusBadRequest, wire.CodeBadRequest)
}

// TestStatsEndpoint checks /v1/stats reflects pipeline activity: a
// repeated compile must show up as a hit, and the request counters and
// histogram must tick.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"v":1,"loop_ref":"hydro2d.loop0","machine_ref":"unified"}`
	wantResult(t, post(t, ts.URL+"/v1/compile", body))
	wantResult(t, post(t, ts.URL+"/v1/compile", body))

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st wire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.V != wire.Version {
		t.Errorf("v = %d", st.V)
	}
	if st.Pipeline.Misses != 1 || st.Pipeline.Hits != 1 {
		t.Errorf("pipeline stats = %+v, want 1 miss / 1 hit", st.Pipeline)
	}
	if st.Pipeline.HitRate != 0.5 {
		t.Errorf("hit_rate = %v, want 0.5 after 1 hit / 1 miss", st.Pipeline.HitRate)
	}
	if st.Pipeline.CachedBytes <= 0 || st.Pipeline.CachedEntries != 1 {
		t.Errorf("cache accounting = %d bytes / %d entries", st.Pipeline.CachedBytes, st.Pipeline.CachedEntries)
	}
	if st.Service.Requests["compile"] != 2 {
		t.Errorf("compile requests = %d, want 2", st.Service.Requests["compile"])
	}
	// Cumulative "le" buckets: monotone, with +Inf equal to the total.
	hist := st.Service.LatencyMS
	if len(hist) == 0 {
		t.Fatal("no latency buckets")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Count < hist[i-1].Count {
			t.Errorf("bucket %d not cumulative: %d after %d", i, hist[i].Count, hist[i-1].Count)
		}
	}
	if last := hist[len(hist)-1]; last.Le >= 0 || last.Count != 2 {
		t.Errorf("+Inf bucket = %+v, want le<0 with count 2", last)
	}
}

// TestStatsEmptyRun pins the zero-denominator guard: a daemon that has
// served no traffic must still answer /v1/stats with valid JSON and a
// zero hit rate — an unguarded 0/0 would produce NaN, which
// json.Marshal refuses to encode, turning the stats endpoint into a
// 500 on every freshly booted server.
func TestStatsEmptyRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-run /v1/stats status = %d, want 200", resp.StatusCode)
	}
	var st wire.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("empty-run stats not valid JSON: %v", err)
	}
	if st.Pipeline.HitRate != 0 {
		t.Errorf("empty-run hit_rate = %v, want 0", st.Pipeline.HitRate)
	}
	if st.Pipeline.Hits != 0 || st.Pipeline.Misses != 0 {
		t.Errorf("empty-run pipeline counters not zero: %+v", st.Pipeline)
	}
}

// TestStatsRejectsPost asserts the method gate (GET-only routes).
func TestStatsRejectsPost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/stats", `{}`)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/stats = %d, want 405", resp.StatusCode)
	}
}

// TestHealthz checks the liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, []byte("ok\n")) {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}
}

// TestDebugVars checks the metrics dump carries the advertised keys.
func TestDebugVars(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wantResult(t, post(t, ts.URL+"/v1/compile", `{"v":1,"loop_ref":"mgrid.loop0","machine_ref":"unified"}`))
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"schedd.requests", "schedd.cache.hits", "schedd.cache.misses",
		"schedd.fallbacks", "schedd.latency_ms", "schedd.evictions",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("debug vars missing %q", key)
		}
	}
}

// TestCacheBoundedByConfig wires CacheBytes through the service and
// checks the pipeline evicts under a stream of distinct requests.
func TestCacheBoundedByConfig(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 32 << 10})
	refs := []string{
		"tomcatv.loop0", "tomcatv.loop1", "swim.loop0", "swim.loop1",
		"mgrid.loop0", "hydro2d.loop0", "applu.loop0", "wave5.loop0",
		"fpppp.loop0", "su2cor.loop0", "turb3d.loop0", "apsi.loop0",
	}
	for _, ref := range refs {
		for _, m := range []string{"unified", "2-cluster/B1/L1", "4-cluster/B1/L1"} {
			body := fmt.Sprintf(`{"v":1,"loop_ref":"%s","machine_ref":"%s"}`, ref, m)
			wantResult(t, post(t, ts.URL+"/v1/compile", body))
		}
	}
	st := s.Pipeline().Stats()
	if st.CachedBytes > 32<<10 {
		t.Errorf("CachedBytes = %d over the configured 32KiB budget", st.CachedBytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite the tiny budget")
	}
}

// TestCapabilities pins GET /v1/capabilities: the engine registry's
// schedulers and strategies (families as placeholders) and the
// machine_ref names, so a client can discover a newly registered
// policy without a version bump.
func TestCapabilities(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var caps wire.CapabilitiesResponse
	if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
		t.Fatal(err)
	}
	if caps.V != wire.Version {
		t.Errorf("v = %d, want %d", caps.V, wire.Version)
	}
	has := func(list []string, want string) bool {
		for _, s := range list {
			if s == want {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"bsa", "ne", "exact"} {
		if !has(caps.Schedulers, want) {
			t.Errorf("schedulers %v missing %q", caps.Schedulers, want)
		}
	}
	for _, want := range []string{"no_unroll", "unroll_all", "selective", "portfolio", "sweep:<k>"} {
		if !has(caps.Strategies, want) {
			t.Errorf("strategies %v missing %q", caps.Strategies, want)
		}
	}
	if !has(caps.Machines, "4-cluster/B1/L1") || !has(caps.Machines, "unified") {
		t.Errorf("machines %v missing Table 1 names", caps.Machines)
	}
	if len(caps.StrategyFamilies) == 0 || caps.StrategyFamilies[0].Prefix != "sweep" {
		t.Errorf("strategy families = %+v", caps.StrategyFamilies)
	}
	if !has(caps.Features, "parallel_ii") {
		t.Errorf("features %v missing \"parallel_ii\" — clients discover the knob here", caps.Features)
	}
	if caps.Loops < 1 {
		t.Errorf("loops = %d", caps.Loops)
	}
	if !sort.StringsAreSorted(caps.Schedulers) || !sort.StringsAreSorted(caps.Machines) {
		t.Error("capability lists are not sorted")
	}
}

// TestCompilePortfolioOverHTTP is the acceptance check for the
// pluggable engine: a registry policy (portfolio) selected purely by
// wire name, served with winner and stage telemetry.
func TestCompilePortfolioOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"4-cluster/B1/L1","options":{"strategy":"portfolio"}}`)
	res := wantResult(t, resp)
	if res.Policy == "" {
		t.Error("result has no policy")
	}
	if res.Stages == nil {
		t.Fatal("result has no stages block")
	}
	if res.Stages.Policy != "portfolio" || res.Stages.Winner == "" {
		t.Errorf("stages = policy %q winner %q", res.Stages.Policy, res.Stages.Winner)
	}
	if len(res.Stages.Stages) != 4 {
		t.Errorf("stage set has %d entries, want 4", len(res.Stages.Stages))
	}
	if len(res.Stages.Candidates) == 0 {
		t.Error("portfolio served no candidate outcomes")
	}

	// And a parameterised family member by name.
	resp = post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"swim.loop0","machine_ref":"2-cluster/B1/L1","options":{"strategy":"sweep:2"}}`)
	res = wantResult(t, resp)
	if res.Stages == nil || res.Stages.Policy != "sweep:2" {
		t.Fatalf("sweep stages = %+v", res.Stages)
	}
}

// TestCompileEngineOptionsError: an option combination the wire caps
// allow but the engine boundary rejects (exact budget on a heuristic
// scheduler) maps to invalid_options, not unschedulable.
func TestCompileEngineOptionsError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := post(t, ts.URL+"/v1/compile",
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified","options":{"exact":{"max_nodes":8}}}`)
	wantError(t, resp, http.StatusBadRequest, wire.CodeInvalidOptions)
}

// TestSweepBoundedByPolicyFactor: the unrolled-size admission cap uses
// the registered policy's own worst-case factor, so a sweep over a
// large inline loop is rejected up front rather than compiled for
// hours.
func TestSweepBoundedByPolicyFactor(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A legal inline loop big enough that nodes x 16 passes the wire's
	// per-knob caps but breaks the composed unrolled-size cap.
	g := ddg.SampleChain(600)
	loop, err := json.Marshal(&corpus.Loop{Graph: g, Bench: "big"})
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"v":1,"loop":%s,"machine_ref":"2-cluster/B1/L1","options":{"strategy":"sweep:16"}}`, loop)
	resp := post(t, ts.URL+"/v1/compile", body)
	werr := wantError(t, resp, http.StatusBadRequest, wire.CodeInvalidOptions)
	if !strings.Contains(werr.Message, "unrolled size") {
		t.Errorf("unexpected message: %s", werr.Message)
	}
}
