// Daemon-side metrics: lock-free counters and a fixed-bucket latency
// histogram.  Deliberately per-Front and per-Server rather than the
// process-global expvar registry, so multiple Servers (tests,
// embedding) never fight over names; /debug/vars renders them in
// expvar's flat-JSON style.

package service

import (
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// frontMetrics is the counter block of one Front: requests per route,
// deadline expiries, batch streams whose client vanished mid-stream, and
// the request-latency histogram.
type frontMetrics struct {
	requests struct {
		compile      atomic.Int64
		batch        atomic.Int64
		stats        atomic.Int64
		capabilities atomic.Int64
	}
	deadlines   atomic.Int64
	disconnects atomic.Int64
	latency     histogram
}

// metrics is the counter block of one Server, the local backend.
type metrics struct {
	cacheRequests atomic.Int64
	rejected      atomic.Int64
	inflight      atomic.Int64
	// quarantined counts refusals of quarantined engines; degraded
	// counts compiles rerouted to the baseline under allow_degraded.
	quarantined atomic.Int64
	degraded    atomic.Int64
}

// latencyBucketsMS are the cumulative upper bounds (milliseconds) of
// the request-latency histogram; the implicit final bucket is +Inf.
var latencyBucketsMS = [...]float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// histogram counts observations per cumulative latency bucket.
type histogram struct {
	counts [len(latencyBucketsMS) + 1]atomic.Int64
}

// observe records one request duration.  It runs once per request on
// the hot path, so the bucket is found by binary search rather than a
// linear scan of the bounds.
func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.counts[bucketIndex(ms)].Add(1)
}

// bucketIndex returns the histogram slot for a latency: the first
// bucket whose upper bound is >= ms (cumulative "le" semantics, so a
// value exactly on a boundary lands in that boundary's bucket), or the
// final +Inf slot when ms exceeds every bound.
func bucketIndex(ms float64) int {
	lo, hi := 0, len(latencyBucketsMS)
	for lo < hi {
		mid := (lo + hi) / 2
		if ms <= latencyBucketsMS[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// buckets snapshots the histogram in the wire shape: cumulative "le"
// semantics (bucket i counts every request that finished within its
// bound, Prometheus style; le < 0 is +Inf and equals the total), built
// by prefix-summing the per-bucket counters.
func (h *histogram) buckets() []wire.HistogramBucket {
	out := make([]wire.HistogramBucket, 0, len(h.counts))
	var cum int64
	for i, le := range latencyBucketsMS {
		cum += h.counts[i].Load()
		out = append(out, wire.HistogramBucket{Le: le, Count: cum})
	}
	cum += h.counts[len(latencyBucketsMS)].Load()
	out = append(out, wire.HistogramBucket{Le: -1, Count: cum})
	return out
}
