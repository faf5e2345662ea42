// Hand-written codecs for the payloads every compile carries, on both
// ends of the exchange: the client encodes requests and decodes
// responses, the server decodes requests and encodes responses.  They
// write and read exactly what encoding/json would — the
// schema-coverage test and the differential fuzz targets
// FuzzDecodeCompileRequest, FuzzDecodeBatchRequest,
// FuzzDecodeCompileResponse and FuzzEncodeCompileResponse hold them to
// it — without its reflection.  Error bodies, stats, capabilities,
// snapshot rows and peer answers still go through encoding/json.

package wire

import (
	"errors"
	"math"
	"slices"

	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/jsonx"
)

// DecodeCompileRequest decodes a /v1/compile body into r as
// DecodeStrict would: one value, nothing but whitespace after it, and
// an unknown field at any level is an error.  The inline loop's graph
// decodes on the same decoder, so the body is scanned once.
func DecodeCompileRequest(data []byte, r *CompileRequest) error {
	d := jsonx.NewDecoder(data)
	decodeCompileRequest(d, r)
	return d.End()
}

// DecodeBatchRequest decodes a /v1/batch body into r as strictly as
// DecodeCompileRequest.
func DecodeBatchRequest(data []byte, r *BatchRequest) error {
	d := jsonx.NewDecoder(data)
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, batchRequestFields) {
		case "v":
			d.Int(&r.V)
		case "requests":
			jsonx.Slice(d, &r.Requests, decodeCompileRequest)
		default:
			d.UnknownField(key)
		}
	}
	return d.End()
}

// The json names of each strictly decoded DTO's fields, for
// jsonx.Match.
var (
	batchRequestFields   = []string{"v", "requests"}
	compileRequestFields = []string{"v", "loop_ref", "loop", "machine_ref", "machine",
		"options", "timeout_ms", "allow_degraded"}
	loopFields        = []string{"graph", "iters", "weight", "bench"}
	machineFields     = []string{"name", "clusters", "fus", "hetero", "regs", "buses", "bus_latency"}
	optionsFields     = []string{"scheduler", "strategy", "factor", "policy", "max_ii", "force_ii", "parallel_ii", "exact"}
	exactBudgetFields = []string{"max_nodes", "max_steps", "max_ii"}
)

func decodeCompileRequest(d *jsonx.Decoder, r *CompileRequest) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, compileRequestFields) {
		case "v":
			d.Int(&r.V)
		case "loop_ref":
			d.String(&r.LoopRef)
		case "loop":
			jsonx.Ptr(d, &r.Loop, decodeLoop)
		case "machine_ref":
			d.String(&r.MachineRef)
		case "machine":
			jsonx.Ptr(d, &r.Machine, decodeMachine)
		case "options":
			jsonx.Ptr(d, &r.Options, decodeOptions)
		case "timeout_ms":
			d.Int(&r.TimeoutMS)
		case "allow_degraded":
			d.Bool(&r.AllowDegraded)
		default:
			d.UnknownField(key)
		}
	}
}

func decodeLoop(d *jsonx.Decoder, l *corpus.Loop) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, loopFields) {
		case "graph":
			jsonx.Ptr(d, &l.Graph, decodeGraph)
		case "iters":
			d.Int(&l.Iters)
		case "weight":
			d.Int(&l.Weight)
		case "bench":
			d.String(&l.Bench)
		default:
			d.UnknownField(key)
		}
	}
}

func decodeGraph(d *jsonx.Decoder, g *ddg.Graph) { g.DecodeJSON(d) }

func decodeMix(d *jsonx.Decoder, mix *[3]int) { jsonx.Array(d, mix[:], (*jsonx.Decoder).Int) }

func decodeMachine(d *jsonx.Decoder, m *Machine) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, machineFields) {
		case "name":
			d.String(&m.Name)
		case "clusters":
			d.Int(&m.Clusters)
		case "fus":
			jsonx.Ptr(d, &m.FUs, decodeMix)
		case "hetero":
			jsonx.Slice(d, &m.Hetero, decodeMix)
		case "regs":
			d.Int(&m.Regs)
		case "buses":
			d.Int(&m.Buses)
		case "bus_latency":
			d.Int(&m.BusLatency)
		default:
			d.UnknownField(key)
		}
	}
}

func decodeOptions(d *jsonx.Decoder, o *Options) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, optionsFields) {
		case "scheduler":
			d.String(&o.Scheduler)
		case "strategy":
			d.String(&o.Strategy)
		case "factor":
			d.Int(&o.Factor)
		case "policy":
			d.String(&o.Policy)
		case "max_ii":
			d.Int(&o.MaxII)
		case "force_ii":
			d.Int(&o.ForceII)
		case "parallel_ii":
			d.Int(&o.ParallelII)
		case "exact":
			jsonx.Ptr(d, &o.Exact, decodeExactBudget)
		default:
			d.UnknownField(key)
		}
	}
}

func decodeExactBudget(d *jsonx.Decoder, e *ExactBudget) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, exactBudgetFields) {
		case "max_nodes":
			d.Int(&e.MaxNodes)
		case "max_steps":
			d.Int64(&e.MaxSteps)
		case "max_ii":
			d.Int(&e.MaxII)
		default:
			d.UnknownField(key)
		}
	}
}

// errNonFinite is what the response encoders return where a
// json.Encoder would refuse a NaN or an infinite float.
var errNonFinite = errors.New("json: unsupported value: non-finite float")

// AppendCompileResponse appends r as a json.Encoder with
// SetEscapeHTML(false) writes it — the JSON and a newline — or fails
// where that encoder fails, on a NaN or infinite float.
func AppendCompileResponse(dst []byte, r *CompileResponse) ([]byte, error) {
	if !finite(r.Result) {
		return dst, errNonFinite
	}
	dst = append(dst, `{"v":`...)
	dst = jsonx.AppendInt(dst, r.V)
	dst = append(dst, `,"result":`...)
	if r.Result == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendResult(dst, r.Result)
	}
	return append(dst, '}', '\n'), nil
}

// AppendBatchItem appends one NDJSON line of a /v1/batch stream as
// AppendCompileResponse appends a response.
func AppendBatchItem(dst []byte, it *BatchItem) ([]byte, error) {
	if !finite(it.Result) {
		return dst, errNonFinite
	}
	dst = append(dst, `{"v":`...)
	dst = jsonx.AppendInt(dst, it.V)
	dst = append(dst, `,"index":`...)
	dst = jsonx.AppendInt(dst, it.Index)
	if it.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = appendResult(dst, it.Result)
	}
	if e := it.Error; e != nil {
		dst = append(dst, `,"error":{"code":`...)
		dst = jsonx.AppendStringNoHTML(dst, e.Code)
		dst = append(dst, `,"message":`...)
		dst = jsonx.AppendStringNoHTML(dst, e.Message)
		if e.RetryAfterMS != 0 {
			dst = append(dst, `,"retry_after_ms":`...)
			dst = jsonx.AppendInt(dst, e.RetryAfterMS)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n'), nil
}

// finite reports whether every float in r is one encoding/json writes.
func finite(r *Result) bool {
	ok := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	if r == nil {
		return true
	}
	if !ok(r.IterationII) {
		return false
	}
	if r.Stages != nil {
		for _, c := range r.Stages.Candidates {
			if !ok(c.IterationII) {
				return false
			}
		}
	}
	return true
}

func appendResult(dst []byte, r *Result) []byte {
	open := len(dst)
	if r.Graph != "" {
		dst = jsonx.AppendField(dst, open, "graph")
		dst = jsonx.AppendStringNoHTML(dst, r.Graph)
	}
	dst = jsonx.AppendField(dst, open, "ii")
	dst = jsonx.AppendInt(dst, r.II)
	dst = append(dst, `,"min_ii":`...)
	dst = jsonx.AppendInt(dst, r.MinII)
	dst = append(dst, `,"iteration_ii":`...)
	dst = jsonx.AppendFloat(dst, r.IterationII)
	dst = append(dst, `,"factor":`...)
	dst = jsonx.AppendInt(dst, r.Factor)
	dst = append(dst, `,"stage_count":`...)
	dst = jsonx.AppendInt(dst, r.StageCount)
	if r.BusLimited {
		dst = append(dst, `,"bus_limited":true`...)
	}
	if r.FellBack {
		dst = append(dst, `,"fell_back":true`...)
	}
	if len(r.MaxLive) > 0 {
		dst = append(dst, `,"max_live":[`...)
		for i, n := range r.MaxLive {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendInt(dst, n)
		}
		dst = append(dst, ']')
	}
	if len(r.Causes) > 0 {
		dst = append(dst, `,"causes":`...)
		dst = appendCauses(dst, r.Causes)
	}
	dst = append(dst, `,"placements":`...)
	if r.Placements == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, p := range r.Placements {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = jsonx.AppendInt(dst, p.Node)
			dst = append(dst, `,"cluster":`...)
			dst = jsonx.AppendInt(dst, p.Cluster)
			dst = append(dst, `,"fu":`...)
			dst = jsonx.AppendInt(dst, p.FU)
			dst = append(dst, `,"cycle":`...)
			dst = jsonx.AppendInt(dst, p.Cycle)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.Transfers) > 0 {
		dst = append(dst, `,"transfers":[`...)
		for i, t := range r.Transfers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"producer":`...)
			dst = jsonx.AppendInt(dst, t.Producer)
			dst = append(dst, `,"from":`...)
			dst = jsonx.AppendInt(dst, t.From)
			dst = append(dst, `,"to":`...)
			dst = jsonx.AppendInt(dst, t.To)
			dst = append(dst, `,"bus":`...)
			dst = jsonx.AppendInt(dst, t.Bus)
			dst = append(dst, `,"start":`...)
			dst = jsonx.AppendInt(dst, t.Start)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if x := r.Decision; x != nil {
		dst = append(dst, `,"decision":{"unrolled":`...)
		dst = appendBool(dst, x.Unrolled)
		dst = append(dst, `,"factor":`...)
		dst = jsonx.AppendInt(dst, x.Factor)
		if x.BusLimited {
			dst = append(dst, `,"bus_limited":true`...)
		}
		if x.ComNeeded != 0 {
			dst = append(dst, `,"com_needed":`...)
			dst = jsonx.AppendInt(dst, x.ComNeeded)
		}
		if x.CycNeeded != 0 {
			dst = append(dst, `,"cyc_needed":`...)
			dst = jsonx.AppendInt(dst, x.CycNeeded)
		}
		if x.UnrolledMinII != 0 {
			dst = append(dst, `,"unrolled_min_ii":`...)
			dst = jsonx.AppendInt(dst, x.UnrolledMinII)
		}
		if x.FailReason != "" {
			dst = append(dst, `,"fail_reason":`...)
			dst = jsonx.AppendStringNoHTML(dst, x.FailReason)
		}
		dst = append(dst, '}')
	}
	if x := r.Exact; x != nil {
		dst = append(dst, `,"exact":{"proved":`...)
		dst = appendBool(dst, x.Proved)
		dst = append(dst, `,"lower_bound":`...)
		dst = jsonx.AppendInt(dst, x.LowerBound)
		dst = append(dst, `,"steps":`...)
		dst = jsonx.AppendInt(dst, x.Steps)
		dst = append(dst, '}')
	}
	if r.Policy != "" {
		dst = append(dst, `,"policy":`...)
		dst = jsonx.AppendStringNoHTML(dst, r.Policy)
	}
	if r.Stages != nil {
		dst = append(dst, `,"stages":`...)
		dst = appendStages(dst, r.Stages)
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if r.DegradedReason != "" {
		dst = append(dst, `,"degraded_reason":`...)
		dst = jsonx.AppendStringNoHTML(dst, r.DegradedReason)
	}
	return append(dst, '}')
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendCauses writes a map as encoding/json does: keys sorted.
func appendCauses(dst []byte, m map[string]int) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendStringNoHTML(dst, k)
		dst = append(dst, ':')
		dst = jsonx.AppendInt(dst, m[k])
	}
	return append(dst, '}')
}

func appendStages(dst []byte, s *Stages) []byte {
	dst = append(dst, `{"scheduler":`...)
	dst = jsonx.AppendStringNoHTML(dst, s.Scheduler)
	dst = append(dst, `,"policy":`...)
	dst = jsonx.AppendStringNoHTML(dst, s.Policy)
	if s.Winner != "" {
		dst = append(dst, `,"winner":`...)
		dst = jsonx.AppendStringNoHTML(dst, s.Winner)
	}
	dst = append(dst, `,"total_ns":`...)
	dst = jsonx.AppendInt(dst, s.TotalNS)
	dst = append(dst, `,"stages":`...)
	if s.Stages == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, st := range s.Stages {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = jsonx.AppendStringNoHTML(dst, st.Name)
			dst = append(dst, `,"ns":`...)
			dst = jsonx.AppendInt(dst, st.NS)
			if st.Calls != 0 {
				dst = append(dst, `,"calls":`...)
				dst = jsonx.AppendInt(dst, st.Calls)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if s.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = jsonx.AppendInt(dst, s.Attempts)
	}
	if len(s.IITrajectory) > 0 {
		dst = append(dst, `,"ii_trajectory":[`...)
		for i, n := range s.IITrajectory {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonx.AppendInt(dst, n)
		}
		dst = append(dst, ']')
	}
	if len(s.Candidates) > 0 {
		dst = append(dst, `,"candidates":[`...)
		for i, c := range s.Candidates {
			if i > 0 {
				dst = append(dst, ',')
			}
			at := len(dst)
			dst = jsonx.AppendField(dst, at, "strategy")
			dst = jsonx.AppendStringNoHTML(dst, c.Strategy)
			if c.IterationII != 0 {
				dst = jsonx.AppendField(dst, at, "iteration_ii")
				dst = jsonx.AppendFloat(dst, c.IterationII)
			}
			if c.Error != "" {
				dst = jsonx.AppendField(dst, at, "error")
				dst = jsonx.AppendStringNoHTML(dst, c.Error)
			}
			if c.Won {
				dst = jsonx.AppendField(dst, at, "won")
				dst = append(dst, "true"...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// AppendCompileRequest appends r's JSON encoding to dst, byte for byte
// what json.Marshal writes.
func AppendCompileRequest(dst []byte, r *CompileRequest) []byte {
	open := len(dst)
	dst = jsonx.AppendField(dst, open, "v")
	dst = jsonx.AppendInt(dst, r.V)
	if r.LoopRef != "" {
		dst = jsonx.AppendField(dst, open, "loop_ref")
		dst = jsonx.AppendString(dst, r.LoopRef)
	}
	if r.Loop != nil {
		dst = jsonx.AppendField(dst, open, "loop")
		dst = appendLoop(dst, r.Loop)
	}
	if r.MachineRef != "" {
		dst = jsonx.AppendField(dst, open, "machine_ref")
		dst = jsonx.AppendString(dst, r.MachineRef)
	}
	if r.Machine != nil {
		dst = jsonx.AppendField(dst, open, "machine")
		dst = appendMachine(dst, r.Machine)
	}
	if r.Options != nil {
		dst = jsonx.AppendField(dst, open, "options")
		dst = appendOptions(dst, r.Options)
	}
	if r.TimeoutMS != 0 {
		dst = jsonx.AppendField(dst, open, "timeout_ms")
		dst = jsonx.AppendInt(dst, r.TimeoutMS)
	}
	if r.AllowDegraded {
		dst = jsonx.AppendField(dst, open, "allow_degraded")
		dst = append(dst, "true"...)
	}
	return append(dst, '}')
}

// AppendBatchRequest appends r's JSON encoding to dst, byte for byte
// what json.Marshal writes.
func AppendBatchRequest(dst []byte, r *BatchRequest) []byte {
	open := len(dst)
	dst = jsonx.AppendField(dst, open, "v")
	dst = jsonx.AppendInt(dst, r.V)
	dst = jsonx.AppendField(dst, open, "requests")
	if r.Requests == nil {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range r.Requests {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendCompileRequest(dst, &r.Requests[i])
	}
	return append(dst, ']', '}')
}

func appendLoop(dst []byte, l *corpus.Loop) []byte {
	open := len(dst)
	dst = jsonx.AppendField(dst, open, "graph")
	if l.Graph == nil {
		dst = append(dst, "null"...)
	} else {
		dst = l.Graph.AppendJSON(dst)
	}
	if l.Iters != 0 {
		dst = jsonx.AppendField(dst, open, "iters")
		dst = jsonx.AppendInt(dst, l.Iters)
	}
	if l.Weight != 0 {
		dst = jsonx.AppendField(dst, open, "weight")
		dst = jsonx.AppendInt(dst, l.Weight)
	}
	if l.Bench != "" {
		dst = jsonx.AppendField(dst, open, "bench")
		dst = jsonx.AppendString(dst, l.Bench)
	}
	return append(dst, '}')
}

func appendMix(dst []byte, mix *[3]int) []byte {
	dst = append(dst, '[')
	for i, n := range mix {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonx.AppendInt(dst, n)
	}
	return append(dst, ']')
}

func appendMachine(dst []byte, m *Machine) []byte {
	open := len(dst)
	if m.Name != "" {
		dst = jsonx.AppendField(dst, open, "name")
		dst = jsonx.AppendString(dst, m.Name)
	}
	dst = jsonx.AppendField(dst, open, "clusters")
	dst = jsonx.AppendInt(dst, m.Clusters)
	if m.FUs != nil {
		dst = jsonx.AppendField(dst, open, "fus")
		dst = appendMix(dst, m.FUs)
	}
	if len(m.Hetero) > 0 {
		dst = jsonx.AppendField(dst, open, "hetero")
		dst = append(dst, '[')
		for i := range m.Hetero {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendMix(dst, &m.Hetero[i])
		}
		dst = append(dst, ']')
	}
	dst = jsonx.AppendField(dst, open, "regs")
	dst = jsonx.AppendInt(dst, m.Regs)
	if m.Buses != 0 {
		dst = jsonx.AppendField(dst, open, "buses")
		dst = jsonx.AppendInt(dst, m.Buses)
	}
	if m.BusLatency != 0 {
		dst = jsonx.AppendField(dst, open, "bus_latency")
		dst = jsonx.AppendInt(dst, m.BusLatency)
	}
	return append(dst, '}')
}

func appendOptions(dst []byte, o *Options) []byte {
	open := len(dst)
	if o.Scheduler != "" {
		dst = jsonx.AppendField(dst, open, "scheduler")
		dst = jsonx.AppendString(dst, o.Scheduler)
	}
	if o.Strategy != "" {
		dst = jsonx.AppendField(dst, open, "strategy")
		dst = jsonx.AppendString(dst, o.Strategy)
	}
	if o.Factor != 0 {
		dst = jsonx.AppendField(dst, open, "factor")
		dst = jsonx.AppendInt(dst, o.Factor)
	}
	if o.Policy != "" {
		dst = jsonx.AppendField(dst, open, "policy")
		dst = jsonx.AppendString(dst, o.Policy)
	}
	if o.MaxII != 0 {
		dst = jsonx.AppendField(dst, open, "max_ii")
		dst = jsonx.AppendInt(dst, o.MaxII)
	}
	if o.ForceII != 0 {
		dst = jsonx.AppendField(dst, open, "force_ii")
		dst = jsonx.AppendInt(dst, o.ForceII)
	}
	if o.ParallelII != 0 {
		dst = jsonx.AppendField(dst, open, "parallel_ii")
		dst = jsonx.AppendInt(dst, o.ParallelII)
	}
	if e := o.Exact; e != nil {
		dst = jsonx.AppendField(dst, open, "exact")
		at := len(dst)
		if e.MaxNodes != 0 {
			dst = jsonx.AppendField(dst, at, "max_nodes")
			dst = jsonx.AppendInt(dst, e.MaxNodes)
		}
		if e.MaxSteps != 0 {
			dst = jsonx.AppendField(dst, at, "max_steps")
			dst = jsonx.AppendInt(dst, e.MaxSteps)
		}
		if e.MaxII != 0 {
			dst = jsonx.AppendField(dst, at, "max_ii")
			dst = jsonx.AppendInt(dst, e.MaxII)
		}
		dst = jsonx.CloseObject(dst, at)
	}
	return jsonx.CloseObject(dst, open)
}

// DecodeCompileResponse decodes a /v1/compile 200 body into r as
// json.Unmarshal would: unknown fields are skipped, malformed or torn
// JSON and mistyped values are errors.
func DecodeCompileResponse(data []byte, r *CompileResponse) error {
	d := jsonx.NewDecoder(data)
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), compileResponseFields) {
		case "v":
			d.Int(&r.V)
		case "result":
			jsonx.Ptr(d, &r.Result, decodeResult)
		default:
			d.Skip()
		}
	}
	return d.End()
}

// DecodeBatchItem decodes one NDJSON line of a /v1/batch stream into
// it, as leniently as DecodeCompileResponse.
func DecodeBatchItem(data []byte, it *BatchItem) error {
	d := jsonx.NewDecoder(data)
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), batchItemFields) {
		case "v":
			d.Int(&it.V)
		case "index":
			d.Int(&it.Index)
		case "result":
			jsonx.Ptr(d, &it.Result, decodeResult)
		case "error":
			jsonx.Ptr(d, &it.Error, decodeError)
		default:
			d.Skip()
		}
	}
	return d.End()
}

// The json names of each decoded DTO's fields, for jsonx.Match.
var (
	compileResponseFields = []string{"v", "result"}
	batchItemFields       = []string{"v", "index", "result", "error"}
	errorFields           = []string{"code", "message", "retry_after_ms"}
	resultFields          = []string{"graph", "ii", "min_ii", "iteration_ii", "factor",
		"stage_count", "bus_limited", "fell_back", "max_live", "causes", "placements",
		"transfers", "decision", "exact", "policy", "stages", "degraded", "degraded_reason"}
	stagesFields = []string{"scheduler", "policy", "winner", "total_ns", "stages",
		"attempts", "ii_trajectory", "candidates"}
	stageTimingFields = []string{"name", "ns", "calls"}
	candidateFields   = []string{"strategy", "iteration_ii", "error", "won"}
	placementFields   = []string{"node", "cluster", "fu", "cycle"}
	transferFields    = []string{"producer", "from", "to", "bus", "start"}
	decisionFields    = []string{"unrolled", "factor", "bus_limited", "com_needed",
		"cyc_needed", "unrolled_min_ii", "fail_reason"}
	exactFields = []string{"proved", "lower_bound", "steps"}
)

func decodeError(d *jsonx.Decoder, e *Error) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), errorFields) {
		case "code":
			d.String(&e.Code)
		case "message":
			d.String(&e.Message)
		case "retry_after_ms":
			d.Int64(&e.RetryAfterMS)
		default:
			d.Skip()
		}
	}
}

func decodeResult(d *jsonx.Decoder, r *Result) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), resultFields) {
		case "graph":
			d.String(&r.Graph)
		case "ii":
			d.Int(&r.II)
		case "min_ii":
			d.Int(&r.MinII)
		case "iteration_ii":
			d.Float64(&r.IterationII)
		case "factor":
			d.Int(&r.Factor)
		case "stage_count":
			d.Int(&r.StageCount)
		case "bus_limited":
			d.Bool(&r.BusLimited)
		case "fell_back":
			d.Bool(&r.FellBack)
		case "max_live":
			jsonx.Slice(d, &r.MaxLive, (*jsonx.Decoder).Int)
		case "causes":
			decodeCauses(d, &r.Causes)
		case "placements":
			jsonx.Slice(d, &r.Placements, decodePlacement)
		case "transfers":
			jsonx.Slice(d, &r.Transfers, decodeTransfer)
		case "decision":
			jsonx.Ptr(d, &r.Decision, decodeDecision)
		case "exact":
			jsonx.Ptr(d, &r.Exact, decodeExact)
		case "policy":
			d.String(&r.Policy)
		case "stages":
			jsonx.Ptr(d, &r.Stages, decodeStages)
		case "degraded":
			d.Bool(&r.Degraded)
		case "degraded_reason":
			d.String(&r.DegradedReason)
		default:
			d.Skip()
		}
	}
}

// decodeCauses decodes into a map as encoding/json does: null sets it
// to nil, an object adds to the existing map (made when nil), and a
// null value stores 0.
func decodeCauses(d *jsonx.Decoder, m *map[string]int) {
	if d.Null() {
		*m = nil
		return
	}
	if *m == nil {
		*m = map[string]int{}
	}
	for more := d.Object(); more; more = d.More('}') {
		k := string(d.Key())
		var n int
		d.Int(&n)
		(*m)[k] = n
	}
}

func decodeStages(d *jsonx.Decoder, s *Stages) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), stagesFields) {
		case "scheduler":
			d.String(&s.Scheduler)
		case "policy":
			d.String(&s.Policy)
		case "winner":
			d.String(&s.Winner)
		case "total_ns":
			d.Int64(&s.TotalNS)
		case "stages":
			jsonx.Slice(d, &s.Stages, decodeStageTiming)
		case "attempts":
			d.Int(&s.Attempts)
		case "ii_trajectory":
			jsonx.Slice(d, &s.IITrajectory, (*jsonx.Decoder).Int)
		case "candidates":
			jsonx.Slice(d, &s.Candidates, decodeCandidate)
		default:
			d.Skip()
		}
	}
}

func decodeStageTiming(d *jsonx.Decoder, s *StageTiming) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), stageTimingFields) {
		case "name":
			d.String(&s.Name)
		case "ns":
			d.Int64(&s.NS)
		case "calls":
			d.Int(&s.Calls)
		default:
			d.Skip()
		}
	}
}

func decodeCandidate(d *jsonx.Decoder, c *CandidateOutcome) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), candidateFields) {
		case "strategy":
			d.String(&c.Strategy)
		case "iteration_ii":
			d.Float64(&c.IterationII)
		case "error":
			d.String(&c.Error)
		case "won":
			d.Bool(&c.Won)
		default:
			d.Skip()
		}
	}
}

func decodePlacement(d *jsonx.Decoder, p *Placement) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), placementFields) {
		case "node":
			d.Int(&p.Node)
		case "cluster":
			d.Int(&p.Cluster)
		case "fu":
			d.Int(&p.FU)
		case "cycle":
			d.Int(&p.Cycle)
		default:
			d.Skip()
		}
	}
}

func decodeTransfer(d *jsonx.Decoder, t *Transfer) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), transferFields) {
		case "producer":
			d.Int(&t.Producer)
		case "from":
			d.Int(&t.From)
		case "to":
			d.Int(&t.To)
		case "bus":
			d.Int(&t.Bus)
		case "start":
			d.Int(&t.Start)
		default:
			d.Skip()
		}
	}
}

func decodeDecision(d *jsonx.Decoder, x *Decision) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), decisionFields) {
		case "unrolled":
			d.Bool(&x.Unrolled)
		case "factor":
			d.Int(&x.Factor)
		case "bus_limited":
			d.Bool(&x.BusLimited)
		case "com_needed":
			d.Int(&x.ComNeeded)
		case "cyc_needed":
			d.Int(&x.CycNeeded)
		case "unrolled_min_ii":
			d.Int(&x.UnrolledMinII)
		case "fail_reason":
			d.String(&x.FailReason)
		default:
			d.Skip()
		}
	}
}

func decodeExact(d *jsonx.Decoder, x *Exact) {
	for more := d.Object(); more; more = d.More('}') {
		switch jsonx.Match(d.Key(), exactFields) {
		case "proved":
			d.Bool(&x.Proved)
		case "lower_bound":
			d.Int(&x.LowerBound)
		case "steps":
			d.Int64(&x.Steps)
		default:
			d.Skip()
		}
	}
}
