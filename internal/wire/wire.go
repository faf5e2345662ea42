// Package wire defines the versioned JSON surface of the scheduling
// service (internal/service, cmd/schedd): request and response
// envelopes, the machine / options / result shapes, and the error
// object every non-2xx response carries.
//
// Versioning: every top-level message carries "v", currently Version
// (1).  Within a version the format only grows backward-compatibly —
// new optional fields may appear, existing fields never change meaning
// or type; decoding is strict (unknown fields are rejected) so drift
// fails loudly on both sides.  Loops travel in the ddg JSON shape
// (ddg.Graph's codec) wrapped in corpus.Loop's tagged fields; machine
// configurations and compile options use the explicit DTOs here, which
// exist so the wire spellings stay stable even if the Go structs move.
//
// The golden fixtures under testdata/ pin the byte-level format; a
// change that alters them is a wire-format change and must bump
// Version.
//
// Codecs: the compile path's payloads are encoded and decoded by hand
// (jsoncodec.go, over internal/jsonx) — AppendCompileRequest and
// AppendBatchRequest on the client's way out, DecodeCompileRequest and
// DecodeBatchRequest on the server's way in, AppendCompileResponse and
// AppendBatchItem on its way back, DecodeCompileResponse and
// DecodeBatchItem at the client again, and ddg.Graph's own codec
// inside every message that carries a loop.  They reproduce
// encoding/json byte for byte and decision for decision:
// FuzzDecodeCompileRequest and FuzzDecodeBatchRequest run the request
// decoders against reflective DecodeStrict with the graph codec it
// replaced, FuzzDecodeCompileResponse runs the response decoders
// against json.Unmarshal, FuzzEncodeCompileResponse runs the response
// encoders against json.Encoder, and TestHandCodecsCoverSchema fails
// when a DTO field is missing from a hand codec.  Every other message
// goes through encoding/json, and DecodeStrict remains the strict
// reflective decoder of snapshot rows and peer answers.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/pipeline"
)

// Version is the current wire-format version.
const Version = 1

// Error codes carried in Error.Code.  Codes are wire-stable: clients
// dispatch on them, so renaming one is a format break.
const (
	CodeBadRequest         = "bad_request"
	CodeUnsupportedVersion = "unsupported_version"
	CodeInvalidLoop        = "invalid_loop"
	CodeUnknownLoop        = "unknown_loop"
	CodeInvalidMachine     = "invalid_machine"
	CodeUnknownMachine     = "unknown_machine"
	CodeInvalidOptions     = "invalid_options"
	CodeUnknownScheduler   = "unknown_scheduler"
	CodeUnknownStrategy    = "unknown_strategy"
	CodeUnknownPolicy      = "unknown_policy"
	CodeBodyTooLarge       = "body_too_large"
	CodeDeadlineExceeded   = "deadline_exceeded"
	CodeOverCapacity       = "over_capacity"
	CodeUnschedulable      = "unschedulable"
	CodeEnginePanic        = "engine_panic"
	CodeEngineQuarantined  = "engine_quarantined"
	CodeDraining           = "draining"
	CodeInternal           = "internal"
	// CodeCacheMiss is the 404 of a peer-cache lookup: the queried
	// daemon has no completed entry for the key.  Not an error in any
	// meaningful sense — the asking daemon falls back to compiling.
	CodeCacheMiss = "cache_miss"
)

// StatusOf maps a wire error code to its HTTP status.  Every server
// (schedd, schedrouter) uses this one table, so a code always rides
// the same status no matter which process emits it.
func StatusOf(code string) int {
	switch code {
	case CodeUnknownLoop, CodeUnknownMachine, CodeCacheMiss:
		return http.StatusNotFound
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeUnschedulable:
		return http.StatusUnprocessableEntity
	case CodeOverCapacity:
		return http.StatusTooManyRequests
	case CodeEngineQuarantined, CodeDraining:
		return http.StatusServiceUnavailable
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeEnginePanic, CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Error is the wire error shape: a stable code plus a human-readable
// message.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS, when > 0, tells the client how long to back off
	// before retrying (429 over_capacity, 503 engine_quarantined /
	// draining).  The HTTP layer mirrors it into a Retry-After header;
	// it also rides inline so NDJSON batch items carry it.  Optional
	// (v1 growth).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Error implements the error interface so handlers can pass one around
// as an ordinary error.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errorf builds a wire error.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	V     int    `json:"v"`
	Error *Error `json:"error"`
}

// CompileRequest asks for one compilation.  The loop comes either by
// reference into the server's corpus (loop_ref, e.g. "tomcatv.loop0")
// or inline with its full dependence graph; the machine likewise by
// Table 1 name (machine_ref, e.g. "4-cluster/B1/L1") or inline.
// Options default to the zero compilation: BSA, no unrolling.
type CompileRequest struct {
	V          int          `json:"v"`
	LoopRef    string       `json:"loop_ref,omitempty"`
	Loop       *corpus.Loop `json:"loop,omitempty"`
	MachineRef string       `json:"machine_ref,omitempty"`
	Machine    *Machine     `json:"machine,omitempty"`
	Options    *Options     `json:"options,omitempty"`
	// TimeoutMS bounds this request's wait on the compile; 0 means the
	// server default.  The server clamps it to its configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// AllowDegraded lets the server fall back to the cheap baseline
	// compilation (bsa, no_unroll) instead of refusing when the
	// requested engine is quarantined or the daemon is shedding load;
	// the result is then tagged degraded.  Optional (v1 growth).
	AllowDegraded bool `json:"allow_degraded,omitempty"`
}

// CompileResponse is the 200 body of /v1/compile.
type CompileResponse struct {
	V      int     `json:"v"`
	Result *Result `json:"result"`
}

// BatchRequest asks for many compilations; the response is NDJSON, one
// BatchItem per line in completion order.
type BatchRequest struct {
	V        int              `json:"v"`
	Requests []CompileRequest `json:"requests"`
}

// BatchItem is one NDJSON line of a /v1/batch response: the index of
// the request it answers plus either a result or an error.
type BatchItem struct {
	V      int     `json:"v"`
	Index  int     `json:"index"`
	Result *Result `json:"result,omitempty"`
	Error  *Error  `json:"error,omitempty"`
}

// Machine is the wire shape of a machine configuration.
type Machine struct {
	Name string `json:"name,omitempty"`
	// Clusters is the cluster count (1 = unified).
	Clusters int `json:"clusters"`
	// FUs is the per-cluster unit mix [integer, float, memory] of a
	// homogeneous machine; ignored when Hetero is set.
	FUs *[3]int `json:"fus,omitempty"`
	// Hetero gives each cluster its own [integer, float, memory] mix.
	Hetero [][3]int `json:"hetero,omitempty"`
	// Regs is the per-cluster register-file capacity.
	Regs int `json:"regs"`
	// Buses and BusLatency describe the inter-cluster interconnect.
	Buses      int `json:"buses,omitempty"`
	BusLatency int `json:"bus_latency,omitempty"`
}

// Options is the wire shape of core.Options.
type Options struct {
	// Scheduler is any registered scheduler name: "bsa" (default),
	// "ne", "exact", plus whatever the engine registry has gained
	// since; GET /v1/capabilities lists them.
	Scheduler string `json:"scheduler,omitempty"`
	// Strategy is any registered unroll policy name: "no_unroll"
	// (default), "unroll_all", "selective", "portfolio", "sweep:<k>",
	// plus whatever the engine registry has gained since.
	Strategy string `json:"strategy,omitempty"`
	// Factor overrides the unroll_all factor; 0 means the cluster count.
	Factor int `json:"factor,omitempty"`
	// Policy: "profit" (default), "round_robin", "first_fit".
	Policy string `json:"policy,omitempty"`
	// MaxII caps the II search; ForceII pins it.
	MaxII   int `json:"max_ii,omitempty"`
	ForceII int `json:"force_ii,omitempty"`
	// ParallelII, when > 1, races up to that many II candidates on
	// separate cores (BSA only; the result is bit-identical to the
	// serial search).  0 and 1 mean serial.
	ParallelII int `json:"parallel_ii,omitempty"`
	// Exact budgets the optimality oracle (scheduler "exact" only).
	Exact *ExactBudget `json:"exact,omitempty"`
}

// ExactBudget is the wire shape of exact.Budget.
type ExactBudget struct {
	MaxNodes int   `json:"max_nodes,omitempty"`
	MaxSteps int64 `json:"max_steps,omitempty"`
	MaxII    int   `json:"max_ii,omitempty"`
}

// Result is the wire shape of a finished compilation.
type Result struct {
	// Graph names the scheduled graph (the unrolled one when unrolling
	// was applied).
	Graph string `json:"graph,omitempty"`
	// II is the achieved initiation interval; MinII the lower bound
	// max(ResMII, RecMII); IterationII is II per original iteration
	// (II / Factor), the number the paper's comparisons use.
	II          int     `json:"ii"`
	MinII       int     `json:"min_ii"`
	IterationII float64 `json:"iteration_ii"`
	// Factor is the unroll factor embodied in the schedule (>= 1).
	Factor int `json:"factor"`
	// StageCount is the number of overlapped kernel copies.
	StageCount int `json:"stage_count"`
	// BusLimited reports a lower II was abandoned for want of buses.
	BusLimited bool `json:"bus_limited,omitempty"`
	// FellBack reports the UnrollAll→NoUnroll fallback produced this
	// result; decision.fail_reason records why.
	FellBack bool `json:"fell_back,omitempty"`
	// MaxLive is the per-cluster register requirement.
	MaxLive []int `json:"max_live,omitempty"`
	// Causes counts abandoned II attempts by failure cause.
	Causes map[string]int `json:"causes,omitempty"`
	// Placements and Transfers are the schedule itself.
	Placements []Placement `json:"placements"`
	Transfers  []Transfer  `json:"transfers,omitempty"`
	// Decision is the unrolling audit trail (strategies that unroll).
	Decision *Decision `json:"decision,omitempty"`
	// Exact carries the oracle's proof metadata (scheduler "exact").
	Exact *Exact `json:"exact,omitempty"`
	// Policy names the registered policy that produced the schedule;
	// for "portfolio" it is the winning candidate.  Optional (v1
	// growth): absent from results recorded before stage telemetry.
	Policy string `json:"policy,omitempty"`
	// Stages is the per-stage compile telemetry.  Optional (v1 growth).
	Stages *Stages `json:"stages,omitempty"`
	// Degraded reports the server compiled with the baseline fallback
	// (bsa, no_unroll) instead of the requested options because the
	// request set allow_degraded and the requested engine was
	// quarantined or the daemon was shedding load; DegradedReason says
	// which.  Optional (v1 growth).
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// Stages is the wire shape of the engine's per-compile telemetry.
type Stages struct {
	// Scheduler and Policy are the resolved registered names of the
	// engine and the requested policy.
	Scheduler string `json:"scheduler"`
	Policy    string `json:"policy"`
	// Winner names the candidate that produced the schedule when the
	// policy raced alternatives ("portfolio", "sweep:<k>").
	Winner string `json:"winner,omitempty"`
	// TotalNS is the wall time of the whole compile.
	TotalNS int64 `json:"total_ns"`
	// Stages is the canonical stage breakdown, always the same four
	// names in the same order: analyze, unroll, schedule, validate.
	Stages []StageTiming `json:"stages"`
	// Attempts counts II-search attempts across the winning path's
	// scheduler runs; IITrajectory lists the IIs tried, in order.
	Attempts     int   `json:"attempts,omitempty"`
	IITrajectory []int `json:"ii_trajectory,omitempty"`
	// Candidates lists the alternatives a multi-way policy evaluated.
	Candidates []CandidateOutcome `json:"candidates,omitempty"`
}

// StageTiming is one canonical stage's cost.
type StageTiming struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
	// Calls counts how many times the stage ran (selective schedules
	// twice, a sweep once per factor).
	Calls int `json:"calls,omitempty"`
}

// CandidateOutcome is one alternative a racing or sweeping policy
// evaluated.
type CandidateOutcome struct {
	Strategy    string  `json:"strategy"`
	IterationII float64 `json:"iteration_ii,omitempty"`
	Error       string  `json:"error,omitempty"`
	Won         bool    `json:"won,omitempty"`
}

// Placement is one operation's slot: node ID, cluster, FU index and
// flat cycle (kernel slot = cycle mod II).
type Placement struct {
	Node    int `json:"node"`
	Cluster int `json:"cluster"`
	FU      int `json:"fu"`
	Cycle   int `json:"cycle"`
}

// Transfer is one inter-cluster communication.
type Transfer struct {
	Producer int `json:"producer"`
	From     int `json:"from"`
	To       int `json:"to"`
	Bus      int `json:"bus"`
	Start    int `json:"start"`
}

// Decision is the wire shape of unroll.Decision.
type Decision struct {
	Unrolled      bool   `json:"unrolled"`
	Factor        int    `json:"factor"`
	BusLimited    bool   `json:"bus_limited,omitempty"`
	ComNeeded     int    `json:"com_needed,omitempty"`
	CycNeeded     int    `json:"cyc_needed,omitempty"`
	UnrolledMinII int    `json:"unrolled_min_ii,omitempty"`
	FailReason    string `json:"fail_reason,omitempty"`
}

// Exact is the wire shape of exact.Result's proof metadata.
type Exact struct {
	Proved     bool  `json:"proved"`
	LowerBound int   `json:"lower_bound"`
	Steps      int64 `json:"steps"`
}

// CapabilitiesResponse is the 200 body of GET /v1/capabilities: what
// the engine registry and the machine table can serve, so a client can
// discover new schedulers and policies without a format bump.
type CapabilitiesResponse struct {
	V int `json:"v"`
	// Schedulers and Strategies are the registered canonical names
	// (families as "prefix:<k>" placeholders), sorted.
	Schedulers []string `json:"schedulers"`
	Strategies []string `json:"strategies"`
	// StrategyFamilies documents each parameterised policy family.
	StrategyFamilies []StrategyFamily `json:"strategy_families,omitempty"`
	// Features lists optional request capabilities this daemon honours
	// (e.g. "parallel_ii", "allow_degraded"), so clients can probe
	// before setting them.
	Features []string `json:"features,omitempty"`
	// Quarantined lists engines currently under circuit-breaker
	// quarantine (open or half-open); requests for them are refused
	// with engine_quarantined unless they set allow_degraded.  Optional
	// (v1 growth).
	Quarantined []string `json:"quarantined,omitempty"`
	// Machines are the machine_ref names (Table 1), sorted.
	Machines []string `json:"machines"`
	// Loops counts the loops loop_ref can name.
	Loops int `json:"loops"`
}

// StrategyFamily documents one parameterised policy family.
type StrategyFamily struct {
	Prefix      string `json:"prefix"`
	Placeholder string `json:"placeholder"`
	Doc         string `json:"doc,omitempty"`
}

// StatsResponse is the 200 body of /v1/stats.
type StatsResponse struct {
	V        int           `json:"v"`
	Pipeline PipelineStats `json:"pipeline"`
	Service  ServiceStats  `json:"service"`
}

// PipelineStats is the wire shape of pipeline.Stats.
type PipelineStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	DedupJoins    int64 `json:"dedup_joins"`
	Compilations  int64 `json:"compilations"`
	Fallbacks     int64 `json:"fallbacks"`
	Evictions     int64 `json:"evictions"`
	CachedBytes   int64 `json:"cached_bytes"`
	CachedEntries int64 `json:"cached_entries"`
	CompileNS     int64 `json:"compile_ns"`
	WallNS        int64 `json:"wall_ns"`
	// Panics counts compiles that ended in a recovered panic (typed
	// engine_panic wire errors).  Optional (v1 growth).
	Panics int64 `json:"panics,omitempty"`
	// PeerHits counts misses satisfied by a cluster peer's cache
	// instead of a local compile; Seeded counts entries restored from a
	// warm-start snapshot (-prefill compiles, so it counts as misses).
	// Optional (v1 growth), zero outside cluster mode.
	PeerHits int64 `json:"peer_hits,omitempty"`
	Seeded   int64 `json:"seeded,omitempty"`
	// HitRate is Hits / (Hits + Misses), 0 when no lookups have
	// happened yet — the zero-lookup guard matters because NaN has no
	// JSON encoding and would make the whole stats document
	// unserializable.  Optional (v1 growth).
	HitRate float64 `json:"hit_rate,omitempty"`
}

// FromPipelineStats converts a pipeline snapshot to the wire shape.
func FromPipelineStats(s pipeline.Stats) PipelineStats {
	var hitRate float64
	if lookups := s.Hits + s.Misses; lookups > 0 {
		hitRate = float64(s.Hits) / float64(lookups)
	}
	return PipelineStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		DedupJoins:    s.DedupJoins,
		Compilations:  s.Compilations,
		Fallbacks:     s.Fallbacks,
		Evictions:     s.Evictions,
		CachedBytes:   s.CachedBytes,
		CachedEntries: s.CachedEntries,
		CompileNS:     int64(s.CompileTime),
		WallNS:        int64(s.WallTime),
		Panics:        s.Panics,
		PeerHits:      s.PeerHits,
		Seeded:        s.Seeded,
		HitRate:       hitRate,
	}
}

// ServiceStats is the daemon-level side of /v1/stats.
type ServiceStats struct {
	// Requests counts handled requests per endpoint.
	Requests map[string]int64 `json:"requests"`
	// Rejected counts requests turned away by admission control (429).
	Rejected int64 `json:"rejected"`
	// Deadlines counts requests that hit their deadline (504).
	Deadlines int64 `json:"deadlines"`
	// InFlight and Queued are point-in-time admission gauges.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	// LatencyMS is the request-latency histogram over /v1/compile and
	// /v1/batch (a batch contributes one observation spanning decode
	// through the last streamed line).  Buckets are cumulative,
	// Prometheus style: bucket i counts every request that finished in
	// <= Le milliseconds; the final bucket (Le < 0, +Inf) is the total.
	LatencyMS []HistogramBucket `json:"latency_ms"`
	// Draining reports the daemon has begun graceful shutdown: /readyz
	// answers 503 and new compile work is refused.  Optional (v1
	// growth).
	Draining bool `json:"draining,omitempty"`
	// Degraded counts requests compiled with the baseline fallback
	// under allow_degraded.  Optional (v1 growth).
	Degraded int64 `json:"degraded,omitempty"`
	// Quarantined counts requests refused with engine_quarantined.
	// Optional (v1 growth).
	Quarantined int64 `json:"quarantined,omitempty"`
	// Engines is the per-engine circuit-breaker health (only engines
	// that have reported failures appear).  Optional (v1 growth).
	Engines []EngineHealth `json:"engines,omitempty"`
	// Faults counts injected faults by name when the daemon runs in
	// chaos mode (-faults); absent in production.  Optional (v1
	// growth).
	Faults map[string]int64 `json:"faults,omitempty"`
}

// EngineHealth is one engine's circuit-breaker snapshot in /v1/stats.
type EngineHealth struct {
	// Engine is the canonical scheduler-engine name; State is the
	// breaker state: "closed", "open" or "half_open".
	Engine string `json:"engine"`
	State  string `json:"state"`
	// WindowFailures counts failures inside the sliding window.
	WindowFailures int `json:"window_failures,omitempty"`
	// Panics / Timeouts / Trips / Probes are lifetime totals.
	Panics   int64 `json:"panics,omitempty"`
	Timeouts int64 `json:"timeouts,omitempty"`
	Trips    int64 `json:"trips,omitempty"`
	Probes   int64 `json:"probes,omitempty"`
	// RetryAfterMS is the cooldown remaining on an open breaker.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// FromEngineHealth converts the engine package's breaker snapshots to
// the wire shape.
func FromEngineHealth(hs []engine.EngineHealth) []EngineHealth {
	if len(hs) == 0 {
		return nil
	}
	out := make([]EngineHealth, 0, len(hs))
	for _, h := range hs {
		out = append(out, EngineHealth{
			Engine:         h.Engine,
			State:          h.State.String(),
			WindowFailures: h.WindowFailures,
			Panics:         h.Panics,
			Timeouts:       h.Timeouts,
			Trips:          h.Trips,
			Probes:         h.Probes,
			RetryAfterMS:   h.RetryAfter.Milliseconds(),
		})
	}
	return out
}

// HistogramBucket is one cumulative latency bucket; Le < 0 means +Inf.
type HistogramBucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// CheckVersion validates an envelope's version field.
func CheckVersion(v int) *Error {
	switch v {
	case Version:
		return nil
	case 0:
		return Errorf(CodeBadRequest, "missing wire version (want \"v\": %d)", Version)
	default:
		return Errorf(CodeUnsupportedVersion, "wire version %d not supported (want %d)", v, Version)
	}
}

// DecodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and any non-whitespace byte after the value, so format
// drift and typos fail loudly instead of silently compiling the wrong
// thing.  (json.Decoder.More cannot be the trailing check: it reports
// no more data before a stray ']' or '}'.)
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), r))
	if err != nil {
		return err
	}
	if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
