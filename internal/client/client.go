// Package client is the resilient Go client for schedd: retries with
// deadline-aware exponential backoff and jitter, Retry-After honoring
// on 429/503, optional hedged requests across several endpoints, and a
// batch call with per-index exactly-once semantics.
//
// Retry safety rests on the server's cache keying: a compile is
// identified by its content (graph fingerprint, machine, options), so
// re-sending the same request after a transient failure either joins
// the in-flight compile or hits the cached result — never a second,
// divergent compilation.  The client therefore retries freely on the
// transient wire codes (over_capacity, engine_quarantined, draining,
// engine_panic, deadline_exceeded) and on transport errors, and never
// on deterministic client errors (bad_request, unknown_loop, ...).
//
// Hedging: with more than one endpoint and Config.Hedge > 0, a request
// that has not answered within the hedge delay is raced against the
// next endpoint; the first response wins and the losers are cancelled.
// Hedging applies to single compiles and GETs, not to batch streams.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Config tunes a Client.  The zero value is unusable: at least one
// endpoint is required.
type Config struct {
	// Endpoints are the schedd base URLs (e.g. "http://127.0.0.1:8080").
	// The first is primary; the rest serve retries and hedges.
	Endpoints []string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Attempts caps tries per request (and per batch round set);
	// <= 0 means 4.
	Attempts int
	// BackoffBase seeds the exponential backoff (doubled per attempt,
	// jittered); <= 0 means 100ms.  BackoffMax caps the computed wait;
	// <= 0 means 5s.  A server Retry-After above the computed wait
	// always wins (still capped by the context deadline).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Hedge launches a duplicate request on the next endpoint when the
	// current one has not answered within this delay; 0 disables
	// hedging.
	Hedge time.Duration
	// Seed makes the jitter deterministic (tests, reproducible chaos
	// runs); 0 means 1.
	Seed int64
}

// Client is a resilient schedd client.  Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Client.
func New(cfg Config) (*Client, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("client: at least one endpoint required")
	}
	for i, ep := range cfg.Endpoints {
		cfg.Endpoints[i] = strings.TrimRight(ep, "/")
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	h := cfg.HTTP
	if h == nil {
		h = http.DefaultClient
	}
	return &Client{cfg: cfg, http: h, rng: rand.New(rand.NewSource(seed))}, nil
}

// retryable reports whether err is worth another attempt: transport
// errors and the transient wire codes are; deterministic rejections
// are not.
func retryable(err error) bool {
	var werr *wire.Error
	if !errors.As(err, &werr) {
		return true // transport-level: connection refused, reset, EOF
	}
	switch werr.Code {
	case wire.CodeOverCapacity, wire.CodeEngineQuarantined, wire.CodeDraining,
		wire.CodeEnginePanic, wire.CodeDeadlineExceeded, wire.CodeInternal:
		return true
	default:
		return false
	}
}

// backoff computes the pre-attempt wait: exponential with full jitter,
// overridden upward by the server's Retry-After when one was sent.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	c.mu.Lock()
	jittered := time.Duration(float64(d) * (0.5 + c.rng.Float64()/2))
	c.mu.Unlock()
	return max(jittered, retryAfter)
}

// sleep waits d, deadline-aware: if the context expires (or would
// expire before d elapses), it returns the context error immediately
// so the caller fails fast instead of sleeping through its budget.
func sleep(ctx context.Context, d time.Duration) error {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) < d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfterOf extracts the server's retry hint from a wire error.
func retryAfterOf(err error) time.Duration {
	var werr *wire.Error
	if errors.As(err, &werr) && werr.RetryAfterMS > 0 {
		return time.Duration(werr.RetryAfterMS) * time.Millisecond
	}
	return 0
}

// response is one settled HTTP exchange with the body fully read.
type response struct {
	status int
	body   []byte
}

// roundTrip runs one exchange against one endpoint and slurps the
// body, so hedged losers can be cancelled without tearing a winner's
// half-read body.
func (c *Client) roundTrip(ctx context.Context, base, method, path string, body []byte) (*response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, body: b}, nil
}

// exchange runs one attempt, hedged across endpoints when configured:
// the request starts on the attempt'th endpoint (rotating, so retries
// move on from a sick server) and a duplicate launches on each next
// endpoint every Hedge interval until one answers.
func (c *Client) exchange(ctx context.Context, attempt int, method, path string, body []byte) (*response, error) {
	eps := c.cfg.Endpoints
	first := attempt % len(eps)
	if c.cfg.Hedge <= 0 || len(eps) == 1 {
		return c.roundTrip(ctx, eps[first], method, path, body)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in every loser
	type settled struct {
		r   *response
		err error
	}
	results := make(chan settled, len(eps))
	launched := 0
	launch := func() {
		ep := eps[(first+launched)%len(eps)]
		launched++
		go func() {
			r, err := c.roundTrip(hctx, ep, method, path, body)
			results <- settled{r, err}
		}()
	}
	launch()
	timer := time.NewTimer(c.cfg.Hedge)
	defer timer.Stop()
	var lastErr error
	for done := 0; done < len(eps); {
		select {
		case s := <-results:
			done++
			if s.err == nil {
				return s.r, nil
			}
			lastErr = s.err
			if done == launched && launched < len(eps) {
				launch() // every outstanding try failed: hedge now
			}
		case <-timer.C:
			if launched < len(eps) {
				launch()
				timer.Reset(c.cfg.Hedge)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if done == len(eps) {
			break
		}
	}
	return nil, lastErr
}

// decodeError maps a non-2xx response to its wire error.
func decodeError(r *response) error {
	var er wire.ErrorResponse
	if err := json.Unmarshal(r.body, &er); err == nil && er.Error != nil {
		return er.Error
	}
	return fmt.Errorf("client: HTTP %d: %s", r.status, bytes.TrimSpace(r.body))
}

// doJSON runs the full retry loop for one JSON-in/JSON-out call,
// handing the 2xx body to decode.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, decode func([]byte) error) error {
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, c.backoff(attempt, retryAfterOf(lastErr))); err != nil {
				return errors.Join(err, lastErr)
			}
		}
		r, err := c.exchange(ctx, attempt, method, path, body)
		if err != nil {
			lastErr = err
		} else if r.status/100 != 2 {
			lastErr = decodeError(r)
		} else {
			return decode(r.body)
		}
		if ctx.Err() != nil || !retryable(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// Compile runs one compilation, retrying transient failures until the
// context or the attempt budget runs out.
func (c *Client) Compile(ctx context.Context, req *wire.CompileRequest) (*wire.Result, error) {
	if req.V == 0 {
		req.V = wire.Version
	}
	body := wire.AppendCompileRequest(nil, req)
	var resp wire.CompileResponse
	decode := func(b []byte) error { return wire.DecodeCompileResponse(b, &resp) }
	if err := c.doJSON(ctx, http.MethodPost, "/v1/compile", body, decode); err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// unmarshalInto is doJSON's decode for the reflective messages.
func unmarshalInto(v any) func([]byte) error {
	return func(b []byte) error { return json.Unmarshal(b, v) }
}

// Stats fetches /v1/stats.
func (c *Client) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	var resp wire.StatsResponse
	if err := c.doJSON(ctx, http.MethodGet, "/v1/stats", nil, unmarshalInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Capabilities fetches /v1/capabilities.
func (c *Client) Capabilities(ctx context.Context) (*wire.CapabilitiesResponse, error) {
	var resp wire.CapabilitiesResponse
	if err := c.doJSON(ctx, http.MethodGet, "/v1/capabilities", nil, unmarshalInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Batch compiles every request and returns exactly one settled item
// per index, in index order.  Each round posts the still-unsettled
// requests as one /v1/batch stream; items that come back with a
// transient error — or never come back because the stream was cut —
// are re-sent next round against the next endpoint.  Because the
// server keys compiles on content, a re-sent request joins or re-reads
// the same compilation: results are exactly-once per index no matter
// how many rounds ran.  Items that exhaust the attempt budget settle
// with their last error (or a synthetic one if their line was lost).
func (c *Client) Batch(ctx context.Context, reqs []wire.CompileRequest) ([]wire.BatchItem, error) {
	return c.BatchUntil(ctx, reqs, nil)
}

// BatchUntil is Batch with a deadline per request: an item still
// unsettled once deadlines[i] has passed settles deadline_exceeded
// instead of going into another round.  A deadline never cuts a round
// short, and a zero one (or a nil slice) leaves the item to the
// attempt budget and ctx alone.
func (c *Client) BatchUntil(ctx context.Context, reqs []wire.CompileRequest, deadlines []time.Time) ([]wire.BatchItem, error) {
	if len(reqs) == 0 {
		return nil, errors.New("client: empty batch")
	}
	out := make([]*wire.BatchItem, len(reqs))
	lastErr := make([]*wire.Error, len(reqs))
	pending := make([]int, len(reqs))
	for i := range reqs {
		pending[i] = i
	}
	// settleExpired settles the pending items whose deadline has
	// passed.  It runs on both sides of each backoff, so no item waits
	// out a backoff or goes into a round after its deadline.
	settleExpired := func() {
		now := time.Now()
		live := pending[:0]
		for _, i := range pending {
			if deadlines != nil && !deadlines[i].IsZero() && !now.Before(deadlines[i]) {
				out[i] = &wire.BatchItem{V: wire.Version, Error: wire.Errorf(wire.CodeDeadlineExceeded, "batch item did not settle within its deadline")}
				continue
			}
			live = append(live, i)
		}
		pending = live
	}

	for attempt := 0; attempt < c.cfg.Attempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			if settleExpired(); len(pending) == 0 {
				break
			}
			var hint time.Duration
			for _, i := range pending {
				if lastErr[i] != nil {
					hint = max(hint, time.Duration(lastErr[i].RetryAfterMS)*time.Millisecond)
				}
			}
			if err := sleep(ctx, c.backoff(attempt, hint)); err != nil {
				break
			}
			if settleExpired(); len(pending) == 0 {
				break
			}
		}
		sub := make([]wire.CompileRequest, len(pending))
		for k, i := range pending {
			sub[k] = reqs[i]
			if sub[k].V == 0 {
				sub[k].V = wire.Version
			}
		}
		body := wire.AppendBatchRequest(nil, &wire.BatchRequest{V: wire.Version, Requests: sub})
		base := c.cfg.Endpoints[attempt%len(c.cfg.Endpoints)]
		next := c.streamBatch(ctx, base, body, pending, out, lastErr)
		pending = next
	}

	// Settle the stragglers, past their deadline or else with their
	// last error, so every index reports exactly one outcome.
	settleExpired()
	for _, i := range pending {
		werr := lastErr[i]
		if werr == nil {
			werr = wire.Errorf(wire.CodeInternal, "batch item never answered (stream cut)")
		}
		out[i] = &wire.BatchItem{V: wire.Version, Index: i, Error: werr}
	}
	items := make([]wire.BatchItem, len(reqs))
	for i, it := range out {
		it.Index = i // re-anchor sub-batch indices to the caller's
		items[i] = *it
	}
	return items, nil
}

// streamBatch posts one batch round and consumes its NDJSON stream,
// settling finished items into out and returning the indices (into the
// caller's original request slice) that still need another round.
func (c *Client) streamBatch(ctx context.Context, base string, body []byte, pending []int, out []*wire.BatchItem, lastErr []*wire.Error) (stillPending []int) {
	transientAll := func(werr *wire.Error) []int {
		for _, i := range pending {
			if out[i] == nil && werr != nil {
				lastErr[i] = werr
			}
		}
		var left []int
		for _, i := range pending {
			if out[i] == nil {
				left = append(left, i)
			}
		}
		return left
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return transientAll(wire.Errorf(wire.CodeInternal, "%v", err))
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return transientAll(nil)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		werr, _ := decodeError(&response{status: resp.StatusCode, body: b}).(*wire.Error)
		if werr != nil && !retryable(werr) {
			// The whole envelope was rejected deterministically; every
			// pending item settles with it.
			for _, i := range pending {
				out[i] = &wire.BatchItem{V: wire.Version, Error: werr}
			}
			return nil
		}
		return transientAll(werr)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var item wire.BatchItem
		if err := wire.DecodeBatchItem(line, &item); err != nil {
			break // torn line: the stream died mid-write
		}
		if item.Index < 0 || item.Index >= len(pending) {
			continue
		}
		orig := pending[item.Index]
		if out[orig] != nil {
			continue // duplicate line: first settle wins
		}
		if item.Error != nil && retryable(item.Error) {
			lastErr[orig] = item.Error
			continue
		}
		settled := item
		out[orig] = &settled
	}
	var left []int
	for _, i := range pending {
		if out[i] == nil {
			left = append(left, i)
		}
	}
	return left
}
