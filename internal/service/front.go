// The HTTP front end: every wire-level concern of the compile service,
// shared by the local backend (*Server) and the cluster router.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Backend is what a Front serves.  A failure returned as a *wire.Error
// reaches the caller as it is; one that wraps a context error answers
// deadline_exceeded (or a canceled request) whatever else it carries;
// anything else is internal.
type Backend interface {
	// Compile answers one request; ctx carries the request's deadline.
	Compile(ctx context.Context, req *wire.CompileRequest) (*wire.Result, error)
	// Batch answers every request of a non-empty batch, passing each
	// settled item to emit, which is safe for concurrent use; it
	// returns once every item has been emitted.
	Batch(ctx context.Context, reqs []wire.CompileRequest, emit func(wire.BatchItem))
	Stats(ctx context.Context) (*wire.StatsResponse, error)
	Capabilities(ctx context.Context) (*wire.CapabilitiesResponse, error)
	// Ready reports whether the backend can take work; draining is the
	// front end's business, not the backend's.
	Ready() bool
}

const (
	// A request without timeout_ms gets defaultTimeout, a client
	// override is clamped to maxTimeout, and a body over
	// defaultMaxBodyBytes is turned away with 413.
	defaultTimeout      = 30 * time.Second
	maxTimeout          = 2 * time.Minute
	defaultMaxBodyBytes = 8 << 20
	// drainRetryHint is the Retry-After a draining front end sends: a
	// restart or a rebalance is seconds away, not minutes.
	drainRetryHint = 2 * time.Second
	// streamWriteBudget bounds each NDJSON line's write+flush; generous
	// for any live client, finite for a dead one.
	streamWriteBudget = 30 * time.Second
)

// Front is the HTTP surface of a Backend: body caps and strict
// decoding, version gates, drain and readiness, request deadlines, the
// NDJSON batch stream, wire errors with Retry-After, and the request
// counters and latency histogram.
type Front struct {
	b       Backend
	maxBody int64

	draining atomic.Bool
	m        frontMetrics
}

// NewFront puts b behind the shared front end; maxBodyBytes <= 0 means
// 8 MiB.
func NewFront(b Backend, maxBodyBytes int64) *Front {
	if maxBodyBytes <= 0 {
		maxBodyBytes = defaultMaxBodyBytes
	}
	return &Front{b: b, maxBody: maxBodyBytes}
}

// BeginDrain flips the front end into drain mode: /readyz answers 503
// so load balancers stop routing here, and new compile work is refused
// with the draining error while in-flight requests finish.  Daemons
// call it on SIGTERM, before http.Server.Shutdown.
func (f *Front) BeginDrain() { f.draining.Store(true) }

// Mux returns a fresh mux with the shared routes mounted; a backend
// adds its own routes to it.
func (f *Front) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", f.handleCompile)
	mux.HandleFunc("POST /v1/batch", f.handleBatch)
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	mux.HandleFunc("GET /v1/capabilities", f.handleCapabilities)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	return mux
}

// answer runs one request through the drain gate, the version check and
// its timeout_ms deadline into the backend, mapping failure to the wire
// error the caller sees.  /v1/compile and every local /v1/batch item
// funnel through here, so a batch item with a wrong version is
// rejected exactly like the same body posted alone.
func (f *Front) answer(ctx context.Context, req *wire.CompileRequest) (*wire.Result, *wire.Error) {
	if werr := f.gate(req.V); werr != nil {
		return nil, werr
	}
	cctx, cancel := context.WithTimeout(ctx, RequestTimeout(req))
	defer cancel()
	res, err := f.b.Compile(cctx, req)
	if err != nil {
		return nil, f.wireError(err)
	}
	return res, nil
}

// RequestTimeout is the deadline a request's compile runs under: its
// timeout_ms clamped to maxTimeout, or defaultTimeout when unset.  The
// cluster router bounds the batch items it forwards by it too.
func RequestTimeout(req *wire.CompileRequest) time.Duration {
	if req.TimeoutMS > 0 {
		return min(time.Duration(req.TimeoutMS)*time.Millisecond, maxTimeout)
	}
	return defaultTimeout
}

// gate refuses new work while draining, then checks the wire version.
func (f *Front) gate(v int) *wire.Error {
	if f.draining.Load() {
		werr := wire.Errorf(wire.CodeDraining, "daemon is draining for shutdown")
		werr.RetryAfterMS = drainRetryHint.Milliseconds()
		return werr
	}
	return wire.CheckVersion(v)
}

// wireError maps a backend failure to its wire error.
func (f *Front) wireError(err error) *wire.Error {
	var werr *wire.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		f.m.deadlines.Add(1)
		return wire.Errorf(wire.CodeDeadlineExceeded, "compile did not finish within the request deadline")
	case errors.Is(err, context.Canceled):
		return wire.Errorf(wire.CodeBadRequest, "request canceled: %v", err)
	case errors.As(err, &werr):
		return werr
	}
	return wire.Errorf(wire.CodeInternal, "%v", err)
}

// writeJSON writes one JSON body with the given status.  HTML escaping
// is off: this is an API, and names like "sweep:<k>" must round-trip
// as spelled.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// writeError writes the wire error shape; a retry hint also goes out
// as a Retry-After header (whole seconds, rounded up) so plain HTTP
// clients and proxies can honour it without parsing the body.
func writeError(w http.ResponseWriter, werr *wire.Error) {
	if werr.RetryAfterMS > 0 {
		secs := (werr.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, wire.StatusOf(werr.Code), wire.ErrorResponse{V: wire.Version, Error: werr})
}

// exchangeBufs recycles the buffer a compile exchange reads its
// request body into and then writes its response from: the decoders
// copy out every byte they keep.  Buffers that grew past
// maxPooledBuf are left to the collector.
var exchangeBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

func putExchangeBuf(buf *[]byte) {
	if cap(*buf) <= maxPooledBuf {
		*buf = (*buf)[:0]
		exchangeBufs.Put(buf)
	}
}

// decodeBody reads a size-capped request body into *buf and strictly
// decodes it into v, mapping overflow to the 413 wire error.
func decodeBody[T any](f *Front, w http.ResponseWriter, r *http.Request, buf *[]byte, v *T, decode func([]byte, *T) error) *wire.Error {
	body, err := readAll(http.MaxBytesReader(w, r.Body, f.maxBody), (*buf)[:0])
	*buf = body
	if err == nil {
		err = decode(body, v)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return wire.Errorf(wire.CodeBodyTooLarge, "request body over the %d byte limit", tooBig.Limit)
		}
		return wire.Errorf(wire.CodeBadRequest, "malformed request: %v", err)
	}
	return nil
}

// readAll is io.ReadAll appending to b.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// handleCompile serves POST /v1/compile.
func (f *Front) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	f.m.requests.compile.Add(1)
	buf := exchangeBufs.Get().(*[]byte)
	defer putExchangeBuf(buf)
	var req wire.CompileRequest
	if werr := decodeBody(f, w, r, buf, &req, wire.DecodeCompileRequest); werr != nil {
		writeError(w, werr)
		return
	}
	res, werr := f.answer(r.Context(), &req)
	f.m.latency.observe(time.Since(start))
	if werr != nil {
		writeError(w, werr)
		return
	}
	// An encoding failure writes the status and no body, as writeJSON
	// does.
	var err error
	*buf, err = wire.AppendCompileResponse((*buf)[:0], &wire.CompileResponse{V: wire.Version, Result: res})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		w.Write(*buf)
	}
}

// handleBatch serves POST /v1/batch: the whole request decodes up
// front, then one NDJSON line streams out per item as the backend
// settles it, so a client can consume early results while late ones are
// still scheduling.  Item failures ride in their line's error field;
// the stream itself is always 200 once the envelope parses.
func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	f.m.requests.batch.Add(1)
	buf := exchangeBufs.Get().(*[]byte)
	defer putExchangeBuf(buf)
	var req wire.BatchRequest
	if werr := decodeBody(f, w, r, buf, &req, wire.DecodeBatchRequest); werr != nil {
		writeError(w, werr)
		return
	}
	if werr := f.gate(req.V); werr != nil {
		writeError(w, werr)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, wire.Errorf(wire.CodeBadRequest, "empty batch"))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Push the headers out before the first item settles, so the client
	// sees the stream open immediately rather than blocking on the
	// slowest first item.
	rc := http.NewResponseController(w)
	rc.Flush()

	// Per-line write deadline: a client that stops reading the stream
	// must not pin this handler (and graceful drain) forever; a blanket
	// server WriteTimeout would instead kill legitimate long batches.
	// A failed write means the client is gone (mid-stream disconnect):
	// stop writing — the request context is already cancelled, so the
	// remaining items fail fast — but keep accepting items so the
	// backend's workers finish and free what they hold.
	var mu sync.Mutex
	line := (*buf)[:0]
	clientGone := false
	f.b.Batch(r.Context(), req.Requests, func(item wire.BatchItem) {
		mu.Lock()
		defer mu.Unlock()
		if clientGone {
			return
		}
		rc.SetWriteDeadline(time.Now().Add(streamWriteBudget))
		var err error
		if line, err = wire.AppendBatchItem(line[:0], &item); err == nil {
			_, err = w.Write(line)
		}
		if err != nil {
			clientGone = true
			f.m.disconnects.Add(1)
			return
		}
		rc.Flush()
	})
	*buf = line
	f.m.latency.observe(time.Since(start))
}

// handleStats serves GET /v1/stats.
func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	f.m.requests.stats.Add(1)
	st, err := f.b.Stats(r.Context())
	if err != nil {
		writeError(w, f.wireError(err))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleCapabilities serves GET /v1/capabilities.
func (f *Front) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	f.m.requests.capabilities.Add(1)
	caps, err := f.b.Capabilities(r.Context())
	if err != nil {
		writeError(w, f.wireError(err))
		return
	}
	writeJSON(w, http.StatusOK, caps)
}

// handleHealthz serves GET /healthz: pure liveness — the process is
// up and serving, draining or not.
func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz serves GET /readyz: readiness flips to 503 the moment
// draining begins, or while the backend cannot take work, so load
// balancers stop routing new work here while in-flight requests finish.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	state := "ok"
	if !f.b.Ready() {
		state = "unavailable"
	}
	if f.draining.Load() {
		state = "draining"
	}
	if state != "ok" {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(drainRetryHint/time.Second), 10))
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, state)
}
