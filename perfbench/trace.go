package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval around a call into a layer.  Spans of
// one operation share Req; Parent is the span that caused this one (0
// for the operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory; writeSpans dumps them when the run ends.  A
// nil *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	// links resolves a layer call that receives no context (a pipeline
	// compile function) to the span of the operation that caused it.
	links map[any][]spanRef
	// handlers is the innermost service-handler span open per request,
	// the parent of compiles that request triggers.
	handlers map[int64]spanRef
	// on gates recording: a traced run first runs untraced through the
	// same code, to measure the tracing overhead.
	on atomic.Bool
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), links: map[any][]spanRef{}, handlers: map[int64]spanRef{}}
	t.on.Store(true)
	return t
}

// active is an open span.
type active struct {
	t *tracer
	s span
}

// start opens a span; parent and req come from the enclosing span (0
// for a root, whose req is then its own id).
func (t *tracer) start(name string, parent, req int64) *active {
	if t == nil || !t.on.Load() {
		return nil
	}
	id := t.next.Add(1)
	if req == 0 {
		req = id
	}
	return &active{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// link registers key → the open span a until unlink; lookup returns
// the oldest live registration (two in-flight operations sharing a key
// share one compile, which the cache charges to the first).  Layer
// calls that receive no context, such as a pipeline compile function,
// find their parent span this way.
func (t *tracer) link(key any, a *active) {
	if t == nil || a == nil {
		return
	}
	t.mu.Lock()
	t.links[key] = append(t.links[key], spanRef{t, a.s.ID, a.s.Req})
	t.mu.Unlock()
}

func (t *tracer) unlink(key any, a *active) {
	if t == nil || a == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	refs := t.links[key]
	for i, r := range refs {
		if r.parent == a.s.ID {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(t.links, key)
	} else {
		t.links[key] = refs
	}
}

func (t *tracer) lookup(key any) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if refs := t.links[key]; len(refs) > 0 {
		return refs[0]
	}
	return spanRef{}
}

// setHandler records the service-handler span now serving req; the
// compiles that request triggers hang under it.
func (t *tracer) setHandler(req int64, r spanRef) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.handlers[req] = r
	t.mu.Unlock()
}

func (t *tracer) handler(req int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handlers[req]
}

// spanRef travels in a context: the tracer and the span a callee's
// spans hang under.
type spanRef struct {
	t           *tracer
	parent, req int64
}

type spanKey struct{}

func withSpan(ctx context.Context, a *active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{a.t, a.s.ID, a.s.Req})
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// child opens a span under the context's span (nothing when untraced).
func (r spanRef) child(name string) *active {
	if r.t == nil {
		return nil
	}
	return r.t.start(name, r.parent, r.req)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates one span name.
type layerStat struct {
	calls int
	// busy sums span durations; self sums each span's share of its
	// operation's wall time (see attribute).
	busy, self time.Duration
}

// ladder is the per-layer breakdown of the traced operations.
type ladder struct {
	layers map[string]*layerStat
	// ops counts root spans; wall sums their durations.
	ops  int
	wall time.Duration
}

// attribute splits every operation's wall time among its spans: each
// instant of the root span belongs to the deepest span open at that
// instant (the earliest-started one among equally deep siblings).  For
// strictly nested spans that is exactly a span's duration minus the
// time its children cover; overlapping siblings (parallel candidates)
// are charged once, so the self times of one operation always sum to
// its root span's duration.  Spans whose parent was not recorded are
// ignored.
func attribute(spans []span) *ladder {
	l := &ladder{layers: map[string]*layerStat{}}
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	reqs := make([]int64, 0, len(byReq))
	for r := range byReq {
		reqs = append(reqs, r)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, r := range reqs {
		attributeOne(l, byReq[r])
	}
	return l
}

func attributeOne(l *ladder, ss []span) {
	byID := make(map[int64]int, len(ss))
	for i, s := range ss {
		byID[s.ID] = i
	}
	depth := make([]int, len(ss))
	root := -1
	for i, s := range ss {
		if s.Parent == 0 {
			root = i
			continue
		}
		d, p := 1, s.Parent
		for p != 0 {
			j, ok := byID[p]
			if !ok {
				d = -1 // orphan: its parent was never recorded
				break
			}
			p = ss[j].Parent
			d++
		}
		depth[i] = d
	}
	if root < 0 {
		return
	}
	for i, s := range ss {
		if depth[i] < 0 {
			continue
		}
		st := l.layer(s.Name)
		st.calls++
		st.busy += time.Duration(s.End - s.Start)
	}
	rs := ss[root]
	l.ops++
	l.wall += time.Duration(rs.End - rs.Start)

	cuts := make([]int64, 0, 2*len(ss))
	for i, s := range ss {
		if depth[i] >= 0 {
			cuts = append(cuts, max(s.Start, rs.Start), min(s.End, rs.End))
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b <= a {
			continue
		}
		best := root
		for i, s := range ss {
			if depth[i] < 0 || s.Start > a || s.End < b {
				continue
			}
			if depth[i] > depth[best] || (depth[i] == depth[best] && s.Start < ss[best].Start) {
				best = i
			}
		}
		l.layer(ss[best].Name).self += time.Duration(b - a)
	}
}

func (l *ladder) layer(name string) *layerStat {
	st, ok := l.layers[name]
	if !ok {
		st = &layerStat{}
		l.layers[name] = st
	}
	return st
}

// meanBusyMS is a layer's mean span duration in ms (0 if absent).
func (l *ladder) meanBusyMS(name string) float64 {
	st, ok := l.layers[name]
	if !ok || st.calls == 0 {
		return 0
	}
	return ms(st.busy) / float64(st.calls)
}

// selfPerOpMS is a layer's self time per operation in ms.
func (l *ladder) selfPerOpMS(name string) float64 {
	st, ok := l.layers[name]
	if !ok || l.ops == 0 {
		return 0
	}
	return ms(st.self) / float64(l.ops)
}

// selfPerCallMS is a layer's self time per call in ms.
func (l *ladder) selfPerCallMS(name string) float64 {
	st, ok := l.layers[name]
	if !ok || st.calls == 0 {
		return 0
	}
	return ms(st.self) / float64(st.calls)
}

// ladderTolerance bounds |e2e - sum of self times| as a share of the
// traced end-to-end time.
const ladderTolerance = 0.05

// report prints the table and checks that the layers account for the
// traced end-to-end time e2e (the harness's own per-operation clock,
// summed); it returns the unattributed remainder per operation.
func (l *ladder) report(rep *report, e2e time.Duration) float64 {
	names := make([]string, 0, len(l.layers))
	for n := range l.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	rep.line("ladder: %d traced operations, %.3f ms end to end per operation", l.ops, share(ms(e2e), float64(l.ops)))
	rep.line("ladder: %-22s %10s %14s %14s %8s", "layer", "calls", "busy ms/call", "self ms/op", "share")
	var sum time.Duration
	for _, n := range names {
		st := l.layers[n]
		sum += st.self
		rep.line("ladder: %-22s %10d %14.4f %14.4f %7.1f%%", n, st.calls,
			share(ms(st.busy), float64(st.calls)), share(ms(st.self), float64(l.ops)), 100*share(float64(st.self), float64(e2e)))
	}
	rest := e2e - sum
	rep.line("ladder: %-22s %10s %14s %14.4f %7.1f%%", "(unattributed)", "", "", share(ms(rest), float64(l.ops)), 100*share(float64(rest), float64(e2e)))
	if e2e > 0 {
		off := float64(rest) / float64(e2e)
		if off < 0 {
			off = -off
		}
		if off > ladderTolerance {
			rep.problem("ladder: layer self times sum to %v, %.1f%% off the traced end-to-end %v (tolerance %.0f%%)",
				sum, 100*off, e2e, 100*ladderTolerance)
		} else {
			rep.line("ladder: layer self times account for the traced end-to-end time within %.0f%%", 100*ladderTolerance)
		}
	}
	return share(ms(rest), float64(l.ops))
}

// spanFile names the span dump of one traced run.
func spanFile(e *env, workload string) string {
	return fmt.Sprintf("%s/%s-seed%d.spans.jsonl", e.workdir, workload, e.seed)
}
