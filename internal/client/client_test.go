package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

func newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 20 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func okResult() *wire.Result { return &wire.Result{II: 2, MinII: 2, Factor: 1} }

func writeErr(w http.ResponseWriter, status int, werr *wire.Error) {
	if werr.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((werr.RetryAfterMS+999)/1000, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(wire.ErrorResponse{V: wire.Version, Error: werr})
}

func TestCompileRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			werr := wire.Errorf(wire.CodeOverCapacity, "full")
			werr.RetryAfterMS = 5
			writeErr(w, http.StatusTooManyRequests, werr)
			return
		}
		json.NewEncoder(w).Encode(wire.CompileResponse{V: wire.Version, Result: okResult()})
	}))
	defer srv.Close()

	c := newClient(t, Config{Endpoints: []string{srv.URL}, Attempts: 4})
	res, err := c.Compile(context.Background(), &wire.CompileRequest{LoopRef: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.II != 2 {
		t.Fatalf("result = %+v", res)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d requests, want 3 (two 429s then success)", n)
	}
}

func TestCompileDoesNotRetryDeterministicErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeErr(w, http.StatusNotFound, wire.Errorf(wire.CodeUnknownLoop, "nope"))
	}))
	defer srv.Close()

	c := newClient(t, Config{Endpoints: []string{srv.URL}})
	_, err := c.Compile(context.Background(), &wire.CompileRequest{LoopRef: "x"})
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeUnknownLoop {
		t.Fatalf("err = %v, want unknown_loop", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d requests, want 1 (no retry on 404)", n)
	}
}

// TestBackoffIsDeadlineAware: a huge Retry-After must not make the
// client sleep through its context deadline; it fails fast instead.
func TestBackoffIsDeadlineAware(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		werr := wire.Errorf(wire.CodeDraining, "draining")
		werr.RetryAfterMS = 60_000
		writeErr(w, http.StatusServiceUnavailable, werr)
	}))
	defer srv.Close()

	c := newClient(t, Config{Endpoints: []string{srv.URL}, Attempts: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Compile(ctx, &wire.CompileRequest{LoopRef: "x"})
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a DeadlineExceeded join", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("client slept %v against a 100ms deadline", el)
	}
	// The transient server error still rides along for diagnosis.
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeDraining {
		t.Errorf("err %v does not carry the last server error", err)
	}
}

// TestHedgedRequestWinsOnSecondEndpoint: the primary hangs, the hedge
// fires and the second endpoint answers.
func TestHedgedRequestWinsOnSecondEndpoint(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer slow.Close()
	var fastCalls atomic.Int64
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fastCalls.Add(1)
		json.NewEncoder(w).Encode(wire.CompileResponse{V: wire.Version, Result: okResult()})
	}))
	defer fast.Close()

	c := newClient(t, Config{
		Endpoints: []string{slow.URL, fast.URL},
		Hedge:     10 * time.Millisecond,
	})
	start := time.Now()
	res, err := c.Compile(context.Background(), &wire.CompileRequest{LoopRef: "x"})
	if err != nil || res == nil {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("hedged compile took %v; the hedge never fired", el)
	}
	if fastCalls.Load() == 0 {
		t.Error("second endpoint never saw the hedge")
	}
}

// batchServer answers /v1/batch, injecting one transient error per
// index until that index has been asked `failures` times.
type batchServer struct {
	failures int
	asked    map[string]int
	calls    atomic.Int64
	cut      int // when > 0, cut the stream after this many lines
}

func (b *batchServer) handle(w http.ResponseWriter, r *http.Request) {
	b.calls.Add(1)
	var req wire.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, wire.Errorf(wire.CodeBadRequest, "%v", err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	written := 0
	for i, cr := range req.Requests {
		if b.cut > 0 && written >= b.cut {
			panic(http.ErrAbortHandler) // simulate a dropped connection
		}
		item := wire.BatchItem{V: wire.Version, Index: i}
		if b.asked[cr.LoopRef] < b.failures {
			b.asked[cr.LoopRef]++
			item.Error = wire.Errorf(wire.CodeEnginePanic, "injected")
		} else {
			item.Result = okResult()
			item.Result.Graph = cr.LoopRef
		}
		enc.Encode(item)
		written++
	}
}

// TestBatchExactlyOnce: every index settles exactly once with its own
// result even when early rounds fail some items transiently.
func TestBatchExactlyOnce(t *testing.T) {
	bs := &batchServer{failures: 1, asked: map[string]int{}}
	srv := httptest.NewServer(http.HandlerFunc(bs.handle))
	defer srv.Close()

	const n = 64
	reqs := make([]wire.CompileRequest, n)
	for i := range reqs {
		reqs[i] = wire.CompileRequest{V: wire.Version, LoopRef: fmt.Sprintf("loop%d", i)}
	}
	c := newClient(t, Config{Endpoints: []string{srv.URL}, Attempts: 4})
	items, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != n {
		t.Fatalf("got %d items, want %d", len(items), n)
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d", i, it.Index)
		}
		if it.Error != nil || it.Result == nil {
			t.Fatalf("item %d not settled with a result: %+v", i, it)
		}
		if want := fmt.Sprintf("loop%d", i); it.Result.Graph != want {
			t.Fatalf("item %d got result for %q (cross-index mixup)", i, it.Result.Graph)
		}
	}
	if got := bs.calls.Load(); got != 2 {
		t.Errorf("server saw %d batch rounds, want 2", got)
	}
}

// TestBatchUntilSettlesExpiredItems: an item that comes back transient
// after its deadline settles deadline_exceeded instead of going into
// the next round; an item without a deadline is retried as usual.
func TestBatchUntilSettlesExpiredItems(t *testing.T) {
	bs := &batchServer{failures: 1, asked: map[string]int{}}
	srv := httptest.NewServer(http.HandlerFunc(bs.handle))
	defer srv.Close()

	reqs := []wire.CompileRequest{{V: wire.Version, LoopRef: "loop0"}, {V: wire.Version, LoopRef: "loop1"}}
	c := newClient(t, Config{Endpoints: []string{srv.URL}, Attempts: 4})
	items, err := c.BatchUntil(context.Background(), reqs, []time.Time{time.Now(), {}})
	if err != nil {
		t.Fatal(err)
	}
	if it := items[0]; it.Error == nil || it.Error.Code != wire.CodeDeadlineExceeded {
		t.Errorf("expired item settled %+v, want %s", it, wire.CodeDeadlineExceeded)
	}
	if it := items[1]; it.Error != nil || it.Result == nil || it.Result.Graph != "loop1" {
		t.Errorf("item without a deadline settled %+v, want its result", it)
	}
	if got := bs.calls.Load(); got != 2 {
		t.Errorf("server saw %d batch rounds, want 2", got)
	}
}

// TestBatchSurvivesStreamCut: the first round's stream dies after a few
// lines; the unanswered indices are retried and all settle.
func TestBatchSurvivesStreamCut(t *testing.T) {
	bs := &batchServer{asked: map[string]int{}, cut: 5}
	var rounds atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rounds.Add(1) == 2 {
			bs.cut = 0 // second round streams to completion
		}
		bs.handle(w, r)
	}))
	defer srv.Close()

	const n = 16
	reqs := make([]wire.CompileRequest, n)
	for i := range reqs {
		reqs[i] = wire.CompileRequest{V: wire.Version, LoopRef: fmt.Sprintf("loop%d", i)}
	}
	c := newClient(t, Config{Endpoints: []string{srv.URL}, Attempts: 4})
	items, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Result == nil || it.Result.Graph != fmt.Sprintf("loop%d", i) {
			t.Fatalf("item %d not settled correctly after stream cut: %+v", i, it)
		}
	}
}

// TestBatchSettlesDeterministicErrorsInPlace: a permanent per-item
// error settles immediately and is not retried.
func TestBatchSettlesDeterministicErrorsInPlace(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		var req wire.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		enc := json.NewEncoder(w)
		for i := range req.Requests {
			item := wire.BatchItem{V: wire.Version, Index: i}
			if req.Requests[i].LoopRef == "bad" {
				item.Error = wire.Errorf(wire.CodeUnknownLoop, "nope")
			} else {
				item.Result = okResult()
			}
			enc.Encode(item)
		}
	}))
	defer srv.Close()

	reqs := []wire.CompileRequest{
		{V: wire.Version, LoopRef: "good"},
		{V: wire.Version, LoopRef: "bad"},
	}
	c := newClient(t, Config{Endpoints: []string{srv.URL}, Attempts: 4})
	items, err := c.Batch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Result == nil {
		t.Errorf("good item unsettled: %+v", items[0])
	}
	if items[1].Error == nil || items[1].Error.Code != wire.CodeUnknownLoop {
		t.Errorf("bad item = %+v, want unknown_loop", items[1])
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d rounds, want 1 (permanent errors must not retry)", calls.Load())
	}
}
