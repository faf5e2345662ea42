// Package faults is the deterministic fault-injection registry behind
// schedd's chaos mode: latency spikes, injected compile errors,
// compile panics, context-cancel storms and cache-evict churn, all
// driven by one seed so a chaos run is reproducible.
//
// An Injector is built from a compact spec string:
//
//	seed=1,panic=0.05,error=0.1,latency=0.25:5ms,cancel=0.1,evict=0.05
//
// and plugs in at the two places the service can be hurt: WrapCompile
// decorates a pipeline.CompileFunc (panics, errors, latency, evict
// churn fire around real compilations), and Middleware decorates the
// HTTP handler (latency and request-context cancel storms fire around
// whole requests).  Production binaries never construct an Injector;
// schedd only builds one when the -faults flag is set, and chaos tests
// construct theirs directly.
//
// Determinism: every decision is a pure function of (seed, fault site,
// subject key, per-subject attempt counter) via FNV-1a — no shared
// PRNG stream, so concurrency does not perturb outcomes.  The first
// compile of loop X always sees the same faults for a given seed no
// matter how requests interleave; its first retry rolls the next
// attempt number, which is how a chaos run converges instead of
// replaying one fault forever.
//
// Injected compile errors and panics are transient in the
// internal/engine sense: the pipeline publishes them to current
// waiters but never caches them, and clients may retry them safely.
package faults

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// InjectedError is a fault-injected compile failure.  It is Transient:
// the pipeline must not cache it and clients may retry it.
type InjectedError struct {
	// Key identifies the compile the fault hit; N is its attempt
	// number under this injector.
	Key string
	N   uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected compile error (attempt %d of %s)", e.N, e.Key)
}

// Transient marks the error as non-cacheable and retry-safe.
func (e *InjectedError) Transient() bool { return true }

// Injector holds one chaos configuration.  The zero value injects
// nothing; build a real one with Parse.  Safe for concurrent use.
type Injector struct {
	seed int64

	panicP, errorP, cancelP, evictP, latencyP float64
	latency                                   time.Duration

	// evict, when set, is invoked on an evict-churn fault (the service
	// wires it to pipeline.Purge).
	evict func()

	mu       sync.Mutex
	attempts map[string]uint64 // per-(site|key) roll counter

	latencies, errors, panics, cancels, evicts atomic.Int64
}

// Parse builds an Injector from a spec string: comma-separated k=v
// pairs, all optional.
//
//	seed=N          decision seed (default 1)
//	panic=P         per-compile panic probability
//	error=P         per-compile injected-error probability
//	latency=P:DUR   per-compile and per-request latency spike (P
//	                probability of sleeping DUR, e.g. 0.25:5ms)
//	cancel=P        per-request context-cancel storm probability
//	evict=P         per-compile cache-purge probability
//
// Probabilities are in [0, 1].  An empty spec yields an injector that
// injects nothing (but still counts nothing — harmless).
func Parse(spec string) (*Injector, error) {
	in := &Injector{seed: 1, attempts: map[string]uint64{}}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return in, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return nil, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", v, err)
			}
			in.seed = n
		case "panic", "error", "cancel", "evict":
			p, err := parseProb(k, v)
			if err != nil {
				return nil, err
			}
			switch k {
			case "panic":
				in.panicP = p
			case "error":
				in.errorP = p
			case "cancel":
				in.cancelP = p
			case "evict":
				in.evictP = p
			}
		case "latency":
			ps, ds, found := strings.Cut(v, ":")
			if !found {
				return nil, fmt.Errorf("faults: bad latency %q (want P:DUR, e.g. 0.25:5ms)", v)
			}
			p, err := parseProb("latency", ps)
			if err != nil {
				return nil, err
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: bad latency duration %q", ds)
			}
			in.latencyP, in.latency = p, d
		default:
			return nil, fmt.Errorf("faults: unknown fault %q (known: seed, panic, error, latency, cancel, evict)", k)
		}
	}
	return in, nil
}

func parseProb(key, v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("faults: bad %s probability %q (want [0,1])", key, v)
	}
	return p, nil
}

// String renders the normalized spec (startup logs).
func (in *Injector) String() string {
	parts := []string{fmt.Sprintf("seed=%d", in.seed)}
	add := func(k string, p float64) {
		if p > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, p))
		}
	}
	add("panic", in.panicP)
	add("error", in.errorP)
	if in.latencyP > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%v", in.latencyP, in.latency))
	}
	add("cancel", in.cancelP)
	add("evict", in.evictP)
	return strings.Join(parts, ",")
}

// SetEvict registers the cache-churn hook (the service passes
// pipeline.Purge).  Call before serving traffic; nil disables.
func (in *Injector) SetEvict(fn func()) { in.evict = fn }

// roll returns the deterministic uniform [0,1) variate for the n'th
// decision at one fault site for one subject, advancing the counter.
func (in *Injector) roll(site, key string) (float64, uint64) {
	in.mu.Lock()
	ck := site + "|" + key
	n := in.attempts[ck]
	in.attempts[ck] = n + 1
	in.mu.Unlock()

	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", in.seed, site, key, n)
	// FNV-1a avalanches poorly when inputs differ only in trailing
	// bytes (the attempt counter), so finalize with a strong mixer
	// before taking 53 mantissa bits -> uniform float64 in [0,1).
	return float64(mix64(h.Sum64())>>11) / float64(1<<53), n
}

// mix64 is the murmur3 64-bit finalizer: full avalanche, so every
// input bit flips each output bit with ~1/2 probability.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// compileKey identifies one compilation for decision purposes: the
// loop's content fingerprint plus the machine, so structurally
// identical requests share a fault fate per attempt.
func compileKey(l *corpus.Loop, cfg *machine.Config) string {
	return l.Graph.Fingerprint() + "|" + cfg.Name
}

// WrapCompile decorates a compile function with the compile-side
// faults: a latency spike, then (exclusively, in precedence order) a
// panic or an injected error; after a real compile, possibly a cache
// purge.  The panic deliberately escapes — the pipeline's recovery
// fence must convert it into a typed engine.PanicError, which is
// exactly the path chaos runs exist to exercise.
func (in *Injector) WrapCompile(next pipeline.CompileFunc) pipeline.CompileFunc {
	return func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		key := compileKey(l, cfg)
		if in.latencyP > 0 {
			if p, _ := in.roll("latency", key); p < in.latencyP {
				in.latencies.Add(1)
				time.Sleep(in.latency)
			}
		}
		if in.panicP > 0 {
			if p, n := in.roll("panic", key); p < in.panicP {
				in.panics.Add(1)
				panic(fmt.Sprintf("faults: injected panic (attempt %d of %s, seed %d)", n, key, in.seed))
			}
		}
		if in.errorP > 0 {
			if p, n := in.roll("error", key); p < in.errorP {
				in.errors.Add(1)
				return nil, &InjectedError{Key: key, N: n}
			}
		}
		res, err := next(l, cfg, opts)
		if in.evictP > 0 && in.evict != nil {
			if p, _ := in.roll("evict", key); p < in.evictP {
				in.evicts.Add(1)
				in.evict()
			}
		}
		return res, err
	}
}

// Middleware decorates an HTTP handler with the request-side faults:
// a latency spike before the handler runs, and cancel storms — the
// request's context is cancelled after a fraction of the configured
// latency duration, simulating a client that gives up (or a router
// that times out) mid-request.  The handler below must survive both.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	if in.latencyP == 0 && in.cancelP == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Method + " " + r.URL.Path
		if in.latencyP > 0 {
			if p, _ := in.roll("http_latency", key); p < in.latencyP {
				in.latencies.Add(1)
				time.Sleep(in.latency)
			}
		}
		if in.cancelP > 0 {
			if p, n := in.roll("cancel", key); p < in.cancelP {
				in.cancels.Add(1)
				ctx, cancel := context.WithCancel(r.Context())
				// Cancel asynchronously after a deterministic sub-latency
				// delay: attempt number modulates where in the request
				// lifetime the storm hits.
				delay := in.cancelDelay(n)
				timer := time.AfterFunc(delay, cancel)
				defer timer.Stop()
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		next.ServeHTTP(w, r)
	})
}

// cancelDelay spreads cancel storms across the request lifetime:
// 0..latency (or 0..5ms when no latency fault is configured), stepped
// by the attempt number.
func (in *Injector) cancelDelay(n uint64) time.Duration {
	span := in.latency
	if span <= 0 {
		span = 5 * time.Millisecond
	}
	return time.Duration(n%8) * span / 8
}

// Counts snapshots the per-fault injection counters, keyed by fault
// name, omitting zeroes.  The service exposes it in /v1/stats during
// chaos runs.
func (in *Injector) Counts() map[string]int64 {
	m := map[string]int64{}
	for k, v := range map[string]int64{
		"latency": in.latencies.Load(),
		"error":   in.errors.Load(),
		"panic":   in.panics.Load(),
		"cancel":  in.cancels.Load(),
		"evict":   in.evicts.Load(),
	} {
		if v != 0 {
			m[k] = v
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// Faults lists the configured fault names, sorted (startup log,
// capability hints).
func (in *Injector) Faults() []string {
	var out []string
	for k, p := range map[string]float64{
		"panic": in.panicP, "error": in.errorP, "latency": in.latencyP,
		"cancel": in.cancelP, "evict": in.evictP,
	} {
		if p > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
