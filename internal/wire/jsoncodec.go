// Hand-written codecs for the payloads every compile carries: the
// request the client encodes and the response it decodes.  They write
// and read exactly what encoding/json would — the schema-coverage test
// and the differential fuzz targets FuzzDecodeCompileRequest and
// FuzzDecodeCompileResponse hold them to it — without its reflection.
// Every other message still goes through encoding/json.

package wire

import (
	"repro/internal/corpus"
	"repro/internal/jsonx"
)

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
