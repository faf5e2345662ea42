package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// spanHeader carries "<req>:<parent>" span ids across HTTP hops in
// traced runs, so a server-side handler span hangs under the span of
// the call that sent it.
const spanHeader = "X-Perfbench-Span"

// transport is the benchmark's HTTP transport: it caps connections at
// the generator's in-flight limit, counts round trips and bytes, and
// forwards the context's span to the server.
type transport struct {
	base               *http.Transport
	trips              atomic.Int64
	reqBytes, rspBytes atomic.Int64
}

func newTransport(conns int) *transport {
	return &transport{base: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}}
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	if r.ContentLength > 0 {
		t.reqBytes.Add(r.ContentLength)
	}
	if ref := spanFrom(r.Context()); ref.t != nil {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d:%d", ref.req, ref.parent))
	}
	rsp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	rsp.Body = &countingBody{ReadCloser: rsp.Body, n: &t.rspBytes}
	return rsp, nil
}

func (t *transport) close() { t.base.CloseIdleConnections() }

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// traceHandler wraps a server handler with a span named name, parented
// by the span header of the incoming request; requests without one
// (probes, stats, warm-up) pass through untraced.
func traceHandler(tr *tracer, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		sp := tr.start(name, parent, req)
		if sp == nil {
			next.ServeHTTP(w, r)
			return
		}
		if name == "service.handler" {
			tr.setHandler(req, spanRef{tr, sp.id(), req})
		}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sp)))
		sp.end()
	})
}

func parseSpanHeader(h string) (req, parent int64, ok bool) {
	a, b, found := strings.Cut(h, ":")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return req, parent, err1 == nil && err2 == nil
}

// newClient builds the generator's client: one endpoint, at most conns
// connections, two attempts (a retry shows up in client.retries).
func newClient(url string, tp *transport) (*client.Client, error) {
	return client.New(client.Config{
		Endpoints:   []string{url},
		HTTP:        &http.Client{Transport: tp},
		Attempts:    2,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
}

// dispatch is one scheduled arrival: a single request or a batch
// envelope of consecutive requests.
type dispatch struct {
	first, n int
	due      time.Time
	// queued is when the generator handed it to a sender; sent is
	// when a sender began the exchange; done is when the answer was
	// in.  Latency is done - due; lateness is sent - due.
	queued, sent, done time.Time
	res                []*wire.Result
	errs               []error
}

// step is one rate of the ladder, run open-loop.
type step struct {
	rate  float64
	start time.Time
	ds    []*dispatch
}

// genConfig shapes the offered load.
type genConfig struct {
	c     *client.Client
	procs int
	tr    *tracer
	batch int     // envelope size (1 = singles only)
	bfrac float64 // share of dispatches that are envelopes
	rng   *rand.Rand
	in    *inputs
}

// runStep offers rate requests per second for dur, starting at request
// index first, with at most procs exchanges in flight: arrivals follow
// the schedule regardless of completions, and a dispatch waiting for a
// sender waits on the clock.  It returns once every dispatch is in.
func runStep(ctx context.Context, g *genConfig, rate float64, dur time.Duration, first int) *step {
	total := int(rate*dur.Seconds() + 0.5)
	st := &step{rate: rate}
	for i := 0; i < total; {
		n := 1
		if g.batch > 1 && g.rng.Float64() < g.bfrac {
			n = min(g.batch, total-i)
		}
		st.ds = append(st.ds, &dispatch{first: first + i, n: n})
		i += n
	}
	queue := make(chan *dispatch, len(st.ds)) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < g.procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range queue {
				g.send(ctx, d)
			}
		}()
	}
	interval := float64(time.Second) / rate
	st.start = time.Now()
	for _, d := range st.ds {
		d.due = st.start.Add(time.Duration(float64(d.first-first) * interval))
		if wait := time.Until(d.due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		d.queued = time.Now()
		queue <- d
	}
	close(queue)
	wg.Wait()
	return st
}

// send runs one dispatch, with a root span when traced.
func (g *genConfig) send(ctx context.Context, d *dispatch) {
	reqs := make([]wire.CompileRequest, d.n)
	for k := range reqs {
		reqs[k] = g.in.request(d.first + k)
	}
	d.res = make([]*wire.Result, d.n)
	d.errs = make([]error, d.n)
	d.sent = time.Now()
	root := g.tr.start("client.compile", 0, 0)
	for k := range reqs {
		g.tr.link(keyOf(&reqs[k]), root)
	}
	cctx := withSpan(ctx, root)
	if d.n == 1 {
		d.res[0], d.errs[0] = g.c.Compile(cctx, &reqs[0])
	} else {
		items, err := g.c.Batch(cctx, reqs)
		for k := range reqs {
			switch {
			case err != nil:
				d.errs[k] = err
			case k >= len(items) || items[k].Index != k || (items[k].Error == nil) == (items[k].Result == nil):
				d.errs[k] = fmt.Errorf("batch item %d malformed", k)
			case items[k].Error != nil:
				d.errs[k] = items[k].Error
			default:
				d.res[k] = items[k].Result
			}
		}
	}
	d.done = time.Now()
	root.end()
	for k := range reqs {
		g.tr.unlink(keyOf(&reqs[k]), root)
	}
}

// latencies returns each request's latency from its due time, in ms,
// and the one-second window (by due time) it belongs to.
func (st *step) latencies() (lat []float64, win []int) {
	for _, d := range st.ds {
		l := ms(d.done.Sub(d.due))
		w := int(d.due.Sub(st.start) / time.Second)
		for k := 0; k < d.n; k++ {
			lat = append(lat, l)
			win = append(win, w)
		}
	}
	return lat, win
}

// lateness returns how late each dispatch was sent, in ms.
func (st *step) lateness() []float64 {
	out := make([]float64, 0, len(st.ds))
	for _, d := range st.ds {
		out = append(out, ms(d.sent.Sub(d.due)))
	}
	return out
}

// backlogGrowth is how much later dispatches waited for a sender at
// the end of the step than at its start: the median lateness of the
// last quarter of dispatches minus that of the first quarter, in ms.
// A backlog that keeps growing shows as a drift of the order of the
// step's length; a steady one stays near zero.
func (st *step) backlogGrowth() float64 {
	late := st.lateness()
	q := len(late) / 4
	if q == 0 {
		return 0
	}
	return median(late[len(late)-q:]) - median(late[:q])
}

// genLateness returns how late the generator itself queued each
// dispatch — its own timer slip, not a wait for a sender — in ms.
func (st *step) genLateness() []float64 {
	out := make([]float64, 0, len(st.ds))
	for _, d := range st.ds {
		out = append(out, ms(d.queued.Sub(d.due)))
	}
	return out
}

// elapsed is the step's wall time, start to last answer.
func (st *step) elapsed() time.Duration {
	var last time.Time
	for _, d := range st.ds {
		if d.done.After(last) {
			last = d.done
		}
	}
	return last.Sub(st.start)
}

func (st *step) requests() int {
	n := 0
	for _, d := range st.ds {
		n += d.n
	}
	return n
}
