// Router tests for what it shares with schedd through the service front
// end: drain, request deadlines, the wire error surface, and batch
// streams whose client goes away.

package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
	"repro/internal/service"
	"repro/internal/wire"
)

// wireOutcome is the caller-visible shape of one error answer.
type wireOutcome struct {
	status     int
	code       string
	retryAfter bool
}

// postOutcome posts body to base+path and reads the error surface.
func postOutcome(t *testing.T, base, path, body string) wireOutcome {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out := wireOutcome{status: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After") != ""}
	var er wire.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err == nil && er.Error != nil {
		out.code = er.Error.Code
	}
	return out
}

// blockingCompile stands in for an engine that runs far past any test
// deadline; it returns once release closes.
func blockingCompile(release <-chan struct{}) func(*corpus.Loop, *machine.Config, core.Options) (*core.Result, error) {
	return func(l *corpus.Loop, cfg *machine.Config, o core.Options) (*core.Result, error) {
		<-release
		return core.Compile(l.Graph, cfg, &o)
	}
}

// TestRouterReadyzDrain: after BeginDrain the router's /readyz answers
// 503 and new compiles and batches are refused with draining, while
// /healthz stays green.
func TestRouterReadyzDrain(t *testing.T) {
	c := newCluster(t)
	get := func(path string) int {
		resp, err := http.Get(c.front.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("router readyz before drain = %d", got)
	}
	c.router.BeginDrain()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("router readyz during drain = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("router healthz during drain = %d, want 200", got)
	}
	want := wireOutcome{http.StatusServiceUnavailable, wire.CodeDraining, true}
	if got := postOutcome(t, c.front.URL, "/v1/compile", compileBody("tomcatv.loop0")); got != want {
		t.Errorf("compile during drain = %+v, want %+v", got, want)
	}
	batch := fmt.Sprintf(`{"v":1,"requests":[%s]}`, compileBody("tomcatv.loop0"))
	if got := postOutcome(t, c.front.URL, "/v1/batch", batch); got != want {
		t.Errorf("batch during drain = %+v, want %+v", got, want)
	}
	if total, _ := c.compilations(); total != 0 {
		t.Errorf("a draining router still routed %d compiles", total)
	}
}

// TestRouterDeadlineNotRetried: a request whose timeout_ms expires
// against a slow replica answers 504 deadline_exceeded, and the router
// does not spend the caller's expired budget retrying it.
func TestRouterDeadlineNotRetried(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	h := service.New(service.Config{Workers: 1, Compile: blockingCompile(release)}).Handler()
	var compiles atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/compile" {
			compiles.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rt, err := NewRouter(RouterConfig{Replicas: []Replica{{Name: "slow", URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	body := `{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"4-cluster/B1/L1","timeout_ms":100}`
	got := postOutcome(t, front.URL, "/v1/compile", body)
	if got.status != http.StatusGatewayTimeout || got.code != wire.CodeDeadlineExceeded {
		t.Errorf("slow replica answered %+v, want 504 %s", got, wire.CodeDeadlineExceeded)
	}
	if n := compiles.Load(); n != 1 {
		t.Errorf("replica received %d /v1/compile requests, want exactly 1", n)
	}
}

// postBatch posts a /v1/batch envelope to base and decodes its NDJSON
// items.
func postBatch(t *testing.T, base, body string) []wire.BatchItem {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []wire.BatchItem
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var it wire.BatchItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		items = append(items, it)
	}
	return items
}

// TestRouterBatchDeadlineNotRetried: a batch item whose timeout_ms
// expires on a slow replica settles deadline_exceeded through the
// router, as the front end settles a single compile, and is never
// re-sent.
func TestRouterBatchDeadlineNotRetried(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	h := service.New(service.Config{Workers: 1, Compile: blockingCompile(release)}).Handler()
	var batches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/batch" {
			batches.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rt, err := NewRouter(RouterConfig{Replicas: []Replica{{Name: "slow", URL: ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	items := postBatch(t, front.URL, `{"v":1,"requests":[{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"4-cluster/B1/L1","timeout_ms":100}]}`)
	if len(items) != 1 || items[0].Error == nil || items[0].Error.Code != wire.CodeDeadlineExceeded {
		t.Errorf("batch answered %+v, want one %s item", items, wire.CodeDeadlineExceeded)
	}
	if n := batches.Load(); n != 1 {
		t.Errorf("replica received %d /v1/batch requests, want exactly 1", n)
	}
}

// TestRouterBatchItemDeadlines: a replica times each batch item from
// when a worker takes it up, so a batch longer than any one item's
// timeout_ms still succeeds item by item — through the router as
// against the replica directly.
func TestRouterBatchItemDeadlines(t *testing.T) {
	const timeoutMS, compileMS = 300, 150 // three items: 450 ms of work
	slowReplica := func() string {
		slow := func(l *corpus.Loop, cfg *machine.Config, o core.Options) (*core.Result, error) {
			time.Sleep(compileMS * time.Millisecond)
			return core.Compile(l.Graph, cfg, &o)
		}
		ts := httptest.NewServer(service.New(service.Config{Workers: 1, Compile: slow}).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	rt, err := NewRouter(RouterConfig{Replicas: []Replica{{Name: "slow", URL: slowReplica()}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	var reqs []string
	for _, ref := range []string{"tomcatv.loop0", "tomcatv.loop1", "swim.loop0"} {
		reqs = append(reqs, fmt.Sprintf(`{"v":1,"loop_ref":%q,"machine_ref":"4-cluster/B1/L1","timeout_ms":%d}`, ref, timeoutMS))
	}
	body := fmt.Sprintf(`{"v":1,"requests":[%s]}`, strings.Join(reqs, ","))
	for _, via := range []struct{ name, url string }{{"schedd", slowReplica()}, {"router", front.URL}} {
		items := postBatch(t, via.url, body)
		if len(items) != len(reqs) {
			t.Fatalf("%s answered %d items, want %d", via.name, len(items), len(reqs))
		}
		for _, it := range items {
			if it.Error != nil {
				t.Errorf("%s: item %d failed: %s", via.name, it.Index, it.Error)
			}
		}
	}
}

// TestRouterErrorParity: the same bad inputs get the same status, wire
// error code and Retry-After presence from a router as from schedd.
func TestRouterErrorParity(t *testing.T) {
	c := newCluster(t)
	loop, err := json.Marshal(&corpus.Loop{Graph: ddg.SampleDotProduct(), Bench: "inline"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, path, body string }{
		{"malformed compile", "/v1/compile", `{"v":1,`},
		{"malformed batch", "/v1/batch", `{"v":1,"requests":[`},
		{"wrong version compile", "/v1/compile", `{"v":99,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}`},
		{"wrong version batch", "/v1/batch", `{"v":99,"requests":[{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}]}`},
		{"empty batch", "/v1/batch", `{"v":1,"requests":[]}`},
		{"loop and loop_ref", "/v1/compile", fmt.Sprintf(`{"v":1,"loop_ref":"tomcatv.loop0","loop":%s,"machine_ref":"unified"}`, loop)},
		{"unknown machine_ref", "/v1/compile", `{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"no-such-machine"}`},
		{"unknown loop_ref", "/v1/compile", `{"v":1,"loop_ref":"nosuch.loop0","machine_ref":"unified"}`},
	}
	for _, tc := range cases {
		direct := postOutcome(t, c.tss[0].URL, tc.path, tc.body)
		routed := postOutcome(t, c.front.URL, tc.path, tc.body)
		if direct.code == "" || direct.status < 400 {
			t.Errorf("%s: schedd answered %+v, want a wire error", tc.name, direct)
		}
		if routed != direct {
			t.Errorf("%s: router answered %+v, schedd %+v", tc.name, routed, direct)
		}
	}
}

// TestRouterBatchDisconnect: a batch client that cancels mid-stream —
// one owner's items delivered, another's still compiling — does not pin
// the router's handler.
func TestRouterBatchDisconnect(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	var reps []Replica
	for _, name := range []string{"fast", "slow"} {
		cfg := service.Config{Workers: 2}
		if name == "slow" {
			cfg.Compile = blockingCompile(release)
		}
		ts := httptest.NewServer(service.New(cfg).Handler())
		t.Cleanup(ts.Close)
		reps = append(reps, Replica{Name: name, URL: ts.URL})
	}
	rt, err := NewRouter(RouterConfig{Replicas: reps})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	returned := make(chan struct{})
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/batch" {
			close(returned)
		}
	}))
	t.Cleanup(front.Close)

	// One loop owned by each replica, fast first.
	owned := map[string]string{}
	for _, ref := range loopRefs(t, 40) {
		owner := rt.ring.Owner(rt.loops[ref].Graph.Fingerprint())
		if owned[owner] == "" {
			owned[owner] = ref
		}
	}
	fast, slow := owned[reps[0].URL], owned[reps[1].URL]
	if fast == "" || slow == "" {
		t.Fatalf("40 loops did not cover both replicas: %v", owned)
	}
	body := fmt.Sprintf(`{"v":1,"requests":[%s,%s]}`, compileBody(fast), compileBody(slow))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/batch", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading the first stream line: %v", err)
	}
	var item wire.BatchItem
	if err := json.Unmarshal(line, &item); err != nil || item.Index != 0 || item.Result == nil {
		t.Fatalf("first line = %s (%v), want the fast replica's result for index 0", line, err)
	}
	cancel()
	resp.Body.Close()

	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("router batch handler still running 10s after its client canceled")
	}
}
