package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one printed metric.  BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is printed by every untraced run, on every workload.  The
// per-workload meaning of each is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"ok_share", "fraction", "higher"},
	{"ipc_rel_geomean", "ratio", "higher"},
	{"code_words", "words", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer is printed by every traced run; a layer the workload does
// not cross reads 0.
var perLayer = []metricDef{
	{"ddg.fingerprint_us", "us", "lower"},
	{"ddg.unroll_ms", "ms", "lower"},
	{"order.sms_ms", "ms", "lower"},
	{"sched.schedule_ms", "ms", "lower"},
	{"sched.attempts", "count", "lower"},
	{"sched.ii_over_mii", "ratio", "lower"},
	{"sched.unschedulable", "count", "lower"},
	{"assign.ne_ms", "ms", "lower"},
	{"unroll.selective_ms", "ms", "lower"},
	{"unroll.unrolled_share", "fraction", "higher"},
	{"engine.analyze_ms", "ms", "lower"},
	{"engine.unroll_ms", "ms", "lower"},
	{"engine.schedule_ms", "ms", "lower"},
	{"engine.validate_ms", "ms", "lower"},
	{"engine.self_ms", "ms", "lower"},
	{"engine.portfolio_waste", "fraction", "lower"},
	{"pipeline.hit_rate", "fraction", "higher"},
	{"pipeline.evictions", "count", "lower"},
	{"pipeline.dedup_joins", "count", "higher"},
	{"pipeline.fallbacks", "count", "lower"},
	{"pipeline.compile_ms", "ms", "lower"},
	{"pipeline.hit_us", "us", "lower"},
	{"pipeline.self_ms", "ms", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.request_bytes", "bytes", "lower"},
	{"wire.response_bytes", "bytes", "lower"},
	{"service.handler_ms", "ms", "lower"},
	{"service.self_ms", "ms", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.deadlines", "count", "lower"},
	{"client.transport_ms", "ms", "lower"},
	{"client.retries", "count", "lower"},
	{"cluster.router_hop_ms", "ms", "lower"},
	{"cluster.peer_fetch_ms", "ms", "lower"},
	{"cluster.hit_rate", "fraction", "higher"},
	{"cluster.failovers", "count", "lower"},
	{"runtime.alloc_bytes_per_compile", "bytes", "lower"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
	{"loadgen.sent_share", "fraction", "higher"},
	{"trace.op_ms", "ms", "lower"},
	{"trace.unattributed_ms", "ms", "lower"},
	{"trace.overhead_share", "fraction", "lower"},
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// share is num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}
