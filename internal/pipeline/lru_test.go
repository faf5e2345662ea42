package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
)

// stubResult is what the stub compiles return: a fixed-size result so
// entry costs are predictable.
func stubResult() *core.Result { return &core.Result{Factor: 1} }

// TestLRUEvictionOrder fills the cache past its byte budget and checks
// the least recently used completed entries go first, that a cache hit
// refreshes recency, that Stats counts the evictions, and that an
// evicted key recompiles.
func TestLRUEvictionOrder(t *testing.T) {
	// Fixed-width loop names keep every key, and so every entry, the
	// same size.
	cfg := machine.TwoCluster(1, 1)
	reqs := make([]Request, 4)
	keys := make([]string, len(reqs))
	for i := range reqs {
		g := ddg.SampleChain(3)
		g.Name = fmt.Sprintf("lru-%d", i)
		reqs[i] = Request{Loop: &corpus.Loop{Graph: g, Iters: 8, Weight: 1, Bench: "t"}, Cfg: cfg}
		keys[i] = reqs[i].key()
	}
	perEntry := entryBytes(keys[0], stubResult())
	for _, k := range keys {
		if got := entryBytes(k, stubResult()); got != perEntry {
			t.Fatalf("entry sizes differ: %d vs %d", got, perEntry)
		}
	}

	p := New(1)
	compiled := map[string]int{}
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		compiled[l.Graph.Name]++
		return stubResult(), nil
	})
	// Budget: the cache holds two entries, not three.
	p.SetCacheBytes(2*perEntry + perEntry/2)

	mustCompile := func(i int) {
		t.Helper()
		if _, err := p.Compile(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// expectCached checks which keys are present.  Peek refreshes the
	// ones it finds, in the order given, so callers list them oldest
	// first to leave recency as it was.
	expectCached := func(evictions int64, present []int, gone ...int) {
		t.Helper()
		if n := p.Stats().Evictions; n != evictions {
			t.Fatalf("%d evictions, want %d", n, evictions)
		}
		for _, i := range gone {
			if _, ok := p.Peek(keys[i]); ok {
				t.Fatalf("key %d still cached, want it evicted", i)
			}
		}
		for _, i := range present {
			if _, ok := p.Peek(keys[i]); !ok {
				t.Fatalf("key %d evicted, want it cached", i)
			}
		}
		if b := p.Stats().CachedBytes; b != int64(len(present))*perEntry {
			t.Fatalf("CachedBytes = %d, want %d", b, int64(len(present))*perEntry)
		}
	}

	mustCompile(0)
	mustCompile(1)
	expectCached(0, []int{0, 1})

	// Third entry overflows the budget: the oldest (0) must go.
	mustCompile(2)
	expectCached(1, []int{1, 2}, 0)

	// Touch 1 so 2 becomes the LRU, then overflow again: 2 must go.
	mustCompile(1)
	mustCompile(3)
	expectCached(2, []int{1, 3}, 2)

	// The evicted key is gone: asking again recompiles.
	mustCompile(0)
	if compiled[reqs[0].Loop.Graph.Name] != 2 {
		t.Errorf("evicted key compiled %d times, want 2", compiled[reqs[0].Loop.Graph.Name])
	}
	if compiled[reqs[1].Loop.Graph.Name] != 1 {
		t.Errorf("refreshed key recompiled: %d", compiled[reqs[1].Loop.Graph.Name])
	}
}

// TestLRUKeepsTotalUnderBudget first fills a bounded pipeline with
// unequal entries to 90% of its budget — one of them larger than a
// 32nd of it — and checks nothing is evicted until the total overflows:
// the budget is one pool, not a per-partition share.  It then hammers
// the pipeline with far more distinct keys than fit and checks the
// bound holds at every step, entries actually churn, and every
// response is still served.
func TestLRUKeepsTotalUnderBudget(t *testing.T) {
	const maxBytes = 16 << 10
	p := New(4)
	// Loops named "big-…" compile to results padded by their Iters, so
	// the fill phase can pick each entry's size.
	paddedResult := func(pad int) *core.Result {
		res := stubResult()
		res.Decision.FailReason = strings.Repeat("x", pad)
		return res
	}
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		if strings.HasPrefix(l.Graph.Name, "big-") {
			return paddedResult(l.Iters), nil
		}
		return stubResult(), nil
	})
	p.SetCacheBytes(maxBytes)

	cfg := machine.FourCluster(1, 1)
	padded := func(i, pad int) Request {
		g := ddg.SampleChain(4)
		g.Name = fmt.Sprintf("big-%04d", i)
		return Request{Loop: &corpus.Loop{Graph: g, Iters: pad, Weight: 1, Bench: "t"}, Cfg: cfg}
	}
	var filled []string
	var total int64
	for i := 0; ; i++ {
		pad := 40 * (i % 7)
		if i == 0 {
			pad = maxBytes / 32 // this entry alone exceeds a 32nd of the budget
		}
		req := padded(i, pad)
		size := entryBytes(req.key(), paddedResult(pad))
		if total+size > maxBytes*9/10 {
			break
		}
		if _, err := p.Compile(req); err != nil {
			t.Fatal(err)
		}
		filled = append(filled, req.key())
		total += size
	}
	st := p.Stats()
	if st.Evictions != 0 || st.CachedBytes != total {
		t.Fatalf("filled %d entries / %d bytes of a %d budget: %d evictions, %d bytes cached; want 0 evictions, all cached",
			len(filled), total, maxBytes, st.Evictions, st.CachedBytes)
	}
	for i, k := range filled {
		if _, ok := p.Peek(k); !ok {
			t.Fatalf("fill entry %d evicted under budget", i)
		}
	}
	if _, err := p.Compile(padded(len(filled), maxBytes/5)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Evictions == 0 || st.CachedBytes > maxBytes {
		t.Fatalf("overflowing entry: %d evictions, %d bytes cached; want evictions back under %d",
			st.Evictions, st.CachedBytes, maxBytes)
	}

	var reqs []Request
	for i := 0; i < 400; i++ {
		g := ddg.SampleChain(4)
		g.Name = fmt.Sprintf("churn-%04d", i)
		reqs = append(reqs, Request{Loop: &corpus.Loop{Graph: g, Iters: 8, Weight: 1, Bench: "t"}, Cfg: cfg})
	}
	for i, r := range reqs {
		if _, err := p.Compile(r); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if st := p.Stats(); st.CachedBytes > maxBytes {
				t.Fatalf("after %d compiles: %d cached bytes over the %d budget", i+1, st.CachedBytes, maxBytes)
			}
		}
	}
	st = p.Stats()
	if st.CachedBytes > maxBytes {
		t.Errorf("CachedBytes = %d over the %d budget", st.CachedBytes, maxBytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite overflowing the budget")
	}
	if st.CachedEntries >= int64(len(reqs)) {
		t.Errorf("CachedEntries = %d, want far fewer than %d distinct keys", st.CachedEntries, len(reqs))
	}
}

// TestCompileCtxDeadline checks an expired deadline unblocks the caller
// while the shared compile finishes and lands in the cache.
func TestCompileCtxDeadline(t *testing.T) {
	p := New(1)
	var calls atomic.Int64
	release := make(chan struct{})
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(), nil
	})
	req := Request{Loop: testLoops(1)[0], Cfg: machine.TwoCluster(1, 1)}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := p.CompileCtx(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	// The compile is still in flight; a joiner with a live context gets
	// the result once it completes, without recompiling.
	done := make(chan error, 1)
	go func() {
		_, err := p.Compile(req)
		done <- err
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compile ran %d times, want 1 (deadline must not abandon the entry)", n)
	}
}

// TestCompileCtxCanceledUpFront checks a dead context never compiles.
func TestCompileCtxCanceledUpFront(t *testing.T) {
	p := New(1)
	var calls atomic.Int64
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		return stubResult(), nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Loop: testLoops(1)[0], Cfg: machine.TwoCluster(1, 1)}
	if _, err := p.CompileCtx(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if calls.Load() != 0 {
		t.Error("canceled context still compiled")
	}
}

// TestCompileBatchCtxCancel checks a batch whose context dies mid-run
// marks every unserved slot with the context error and leaves none
// empty.
func TestCompileBatchCtxCancel(t *testing.T) {
	p := New(2)
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		time.Sleep(5 * time.Millisecond)
		return stubResult(), nil
	})
	loops := testLoops(32)
	cfg := machine.TwoCluster(1, 1)
	var reqs []Request
	for _, l := range loops {
		reqs = append(reqs, Request{Loop: l, Cfg: cfg})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 12*time.Millisecond)
	defer cancel()
	out := p.CompileBatchCtx(ctx, reqs)

	served, failed := 0, 0
	for i, r := range out {
		switch {
		case r.Result != nil:
			served++
		case errors.Is(r.Err, context.DeadlineExceeded):
			failed++
		default:
			t.Errorf("slot %d: empty response (err %v)", i, r.Err)
		}
	}
	if served == 0 {
		t.Error("no slot served before the deadline")
	}
	if failed == 0 {
		t.Error("no slot marked with the context error")
	}
}

// TestMaxConcurrentCompiles checks the compile cap: while one compile
// holds the only slot, a second distinct request must not even start
// compiling — its deadline expires slotless and spawns nothing — and
// once the slot frees, the key compiles normally.
func TestMaxConcurrentCompiles(t *testing.T) {
	p := New(4)
	p.SetMaxConcurrentCompiles(1)
	var calls atomic.Int64
	release := make(chan struct{})
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		<-release
		return stubResult(), nil
	})
	loops := testLoops(2)
	cfg := machine.TwoCluster(1, 1)

	first := make(chan error, 1)
	go func() {
		_, err := p.Compile(Request{Loop: loops[0], Cfg: cfg})
		first <- err
	}()
	for i := 0; i < 500 && calls.Load() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if calls.Load() != 1 {
		t.Fatal("first compile never started")
	}

	// Second key: the slot is taken, so the deadline must expire before
	// any compile starts, leaving no cache entry behind.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.CompileCtx(ctx, Request{Loop: loops[1], Cfg: cfg}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("capped compile started anyway (%d calls)", n)
	}
	if n := p.Stats().CachedEntries; n != 1 {
		t.Errorf("slotless attempt left a cache entry (%d entries, want 1)", n)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compile(Request{Loop: loops[1], Cfg: cfg}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("compiles ran %d times, want 2", n)
	}
}

// TestMaxConcurrentCompilesContention checks correctness under the cap:
// many goroutines, overlapping keys, every request answered and each
// key compiled exactly once.
func TestMaxConcurrentCompilesContention(t *testing.T) {
	p := New(8)
	p.SetMaxConcurrentCompiles(2)
	var calls atomic.Int64
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return stubResult(), nil
	})
	loops := testLoops(8)
	cfg := machine.TwoCluster(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if _, err := p.Compile(Request{Loop: loops[(g+i)%len(loops)], Cfg: cfg}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != int64(len(loops)) {
		t.Errorf("%d compiles for %d keys", n, len(loops))
	}
}

// TestBoundedCacheRaces runs concurrent compiles, hits and evictions
// under a tiny budget; the race detector and the byte bound are the
// assertions.
func TestBoundedCacheRaces(t *testing.T) {
	const maxBytes = 8 << 10
	p := New(4)
	p.SetCompile(func(l *corpus.Loop, cfg *machine.Config, opts core.Options) (*core.Result, error) {
		return stubResult(), nil
	})
	p.SetCacheBytes(maxBytes)
	loops := testLoops(64)
	cfg := machine.FourCluster(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := p.Compile(Request{Loop: loops[(g*7+i)%len(loops)], Cfg: cfg}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.CachedBytes > maxBytes {
		t.Errorf("CachedBytes = %d over the %d budget", st.CachedBytes, maxBytes)
	}
}
