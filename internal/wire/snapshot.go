// Cache snapshot codec: the serialized form of a pipeline cache entry,
// used both at rest (warm-start snapshots, NDJSON, one CacheEntry per
// line) and in flight (the body of GET /v1/cache/{key} peer lookups).
//
// A row carries everything FromResult computes from — the scheduled
// graph (ddg codec), the machine (wire Machine) and the result DTO —
// so restore rebuilds an in-process result whose re-encoding is
// byte-identical to the original row.  Derived fields the Result DTO
// spells out (stage count, max_live, iteration_ii) are recomputed from
// the graph and schedule on load and cross-checked against the row,
// and the schedule itself is re-validated, so a corrupted, hand-edited
// or poisoned row fails loudly instead of serving a wrong schedule.

package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/ddg"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/unroll"
)

// CacheEntry is the wire shape of one completed cache entry: one
// snapshot row, or the 200 body of a peer-cache lookup.
type CacheEntry struct {
	V int `json:"v"`
	// Key is the pipeline cache key, verbatim; its fingerprint prefix
	// is what cluster routing shards on.
	Key string `json:"key"`
	// Graph is the scheduled dependence graph — the unrolled one when
	// unrolling was applied — in the ddg wire shape.
	Graph *ddg.Graph `json:"graph"`
	// Machine is the target the schedule was compiled for.
	Machine *Machine `json:"machine"`
	// Result is the finished compilation.
	Result *Result `json:"result"`
}

// FromCacheEntry converts a pipeline cache entry to the wire shape.
func FromCacheEntry(e pipeline.CacheEntry) *CacheEntry {
	s := e.Res.Schedule
	return &CacheEntry{
		V:       Version,
		Key:     e.Key,
		Graph:   s.Graph,
		Machine: FromConfig(s.Cfg),
		Result:  FromResult(e.Res),
	}
}

// Core rebuilds the in-process cache entry, validating as it goes: the
// machine must pass Config.Validate, the schedule's shape must fit the
// graph, the row's derived fields must match what the rebuilt schedule
// computes, and the schedule must pass sched.Validate — an entry from
// a snapshot or a peer is never trusted to be a legal schedule.
func (e *CacheEntry) Core() (pipeline.CacheEntry, error) {
	if werr := CheckVersion(e.V); werr != nil {
		return pipeline.CacheEntry{}, werr
	}
	if e.Key == "" {
		return pipeline.CacheEntry{}, fmt.Errorf("cache entry has no key")
	}
	if e.Graph == nil || e.Machine == nil || e.Result == nil {
		return pipeline.CacheEntry{}, fmt.Errorf("cache entry %q: graph, machine and result all required", e.Key)
	}
	cfg, werr := e.Machine.Config()
	if werr != nil {
		return pipeline.CacheEntry{}, fmt.Errorf("cache entry %q: %w", e.Key, werr)
	}
	res, err := e.Result.Core(e.Graph, cfg)
	if err == nil {
		err = sched.Validate(res.Schedule)
	}
	if err != nil {
		return pipeline.CacheEntry{}, fmt.Errorf("cache entry %q: %w", e.Key, err)
	}
	return pipeline.CacheEntry{Key: e.Key, Res: res}, nil
}

// causeNames maps the wire spellings of sched.FailCause (the inverse
// of FailCause.String).
var causeNames = map[string]sched.FailCause{
	"none":      sched.CauseNone,
	"fu":        sched.CauseFU,
	"reg":       sched.CauseReg,
	"comm":      sched.CauseComm,
	"cancelled": sched.CauseCancelled,
}

// Core rebuilds a finished compilation from its wire shape plus the
// scheduled graph and machine the DTO only names.  It is the inverse
// of FromResult: re-encoding the returned result reproduces the DTO
// byte for byte, which the loader of a snapshot relies on to reject
// rows whose derived fields (stage count, max_live, iteration_ii)
// disagree with the placements they ride with.
func (r *Result) Core(g *ddg.Graph, cfg machine.Config) (*core.Result, error) {
	if r.II <= 0 {
		return nil, fmt.Errorf("result has ii %d, want >= 1", r.II)
	}
	if r.Factor < 1 {
		return nil, fmt.Errorf("result has factor %d, want >= 1", r.Factor)
	}
	if n := len(r.Placements); n != g.NumNodes() {
		return nil, fmt.Errorf("result has %d placements for a %d-node graph", n, g.NumNodes())
	}
	s := &sched.Schedule{
		Graph:      g,
		Cfg:        cfg,
		II:         r.II,
		MinII:      r.MinII,
		BusLimited: r.BusLimited,
		Placements: make([]sched.Placement, 0, len(r.Placements)),
	}
	for i, p := range r.Placements {
		if p.Node != i {
			return nil, fmt.Errorf("placement %d names node %d; placements must be indexed by node", i, p.Node)
		}
		if p.Cluster < 0 || p.Cluster >= cfg.NClusters || p.Cycle < 0 {
			return nil, fmt.Errorf("placement %d (cluster %d, cycle %d) out of range", i, p.Cluster, p.Cycle)
		}
		s.Placements = append(s.Placements, sched.Placement{
			Node: p.Node, Cluster: p.Cluster, FU: p.FU, Cycle: p.Cycle,
		})
	}
	for i, t := range r.Transfers {
		if t.Producer < 0 || t.Producer >= g.NumNodes() || t.Start < 0 {
			return nil, fmt.Errorf("transfer %d (producer %d, start %d) out of range", i, t.Producer, t.Start)
		}
		s.Transfers = append(s.Transfers, sched.Transfer{
			Producer: t.Producer, From: t.From, To: t.To, Bus: t.Bus, Start: t.Start,
		})
	}
	if len(r.Causes) > 0 {
		s.Causes = make(map[sched.FailCause]int, len(r.Causes))
		for name, n := range r.Causes {
			cause, ok := causeNames[name]
			if !ok {
				return nil, fmt.Errorf("unknown failure cause %q", name)
			}
			s.Causes[cause] = n
		}
	}
	out := &core.Result{
		Schedule: s,
		Factor:   r.Factor,
		FellBack: r.FellBack,
		Policy:   r.Policy,
		Stages:   toTelemetry(r.Stages),
	}
	if r.Decision != nil {
		out.Decision = unroll.Decision{
			Unrolled:      r.Decision.Unrolled,
			Factor:        r.Decision.Factor,
			BusLimited:    r.Decision.BusLimited,
			ComNeeded:     r.Decision.ComNeeded,
			CycNeeded:     r.Decision.CycNeeded,
			UnrolledMinII: r.Decision.UnrolledMinII,
			FailReason:    r.Decision.FailReason,
		}
		if out.Decision == (unroll.Decision{}) {
			return nil, fmt.Errorf("result carries an all-zero decision")
		}
	}
	if r.Exact != nil {
		out.Exact = &exact.Result{
			Proved:     r.Exact.Proved,
			LowerBound: r.Exact.LowerBound,
			Steps:      r.Exact.Steps,
		}
	}
	// Cross-check the derived fields the DTO spells out against what
	// the rebuilt schedule computes: a row whose placements disagree
	// with its stage count or register requirement is corrupt.
	if got := g.Name; got != r.Graph {
		return nil, fmt.Errorf("result names graph %q but rides with %q", r.Graph, got)
	}
	if got := s.SC(); got != r.StageCount {
		return nil, fmt.Errorf("result claims stage count %d, placements compute %d", r.StageCount, got)
	}
	if got := out.IterationII(); got != r.IterationII {
		return nil, fmt.Errorf("result claims iteration ii %g, ii/factor computes %g", r.IterationII, got)
	}
	if got := s.MaxLive(); !equalInts(got, r.MaxLive) {
		return nil, fmt.Errorf("result claims max_live %v, lifetimes compute %v", r.MaxLive, got)
	}
	return out, nil
}

// equalInts compares two int slices, treating nil and empty alike (the
// DTO omits an empty max_live).
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// toTelemetry rebuilds the engine's stage telemetry from the wire
// shape (the inverse of FromTelemetry); nil in, nil out.
func toTelemetry(w *Stages) *engine.Telemetry {
	if w == nil {
		return nil
	}
	t := &engine.Telemetry{
		Scheduler:  w.Scheduler,
		Policy:     w.Policy,
		Winner:     w.Winner,
		Total:      time.Duration(w.TotalNS),
		Stages:     make([]engine.Stage, 0, len(w.Stages)),
		Attempts:   w.Attempts,
		Trajectory: w.IITrajectory,
	}
	for _, s := range w.Stages {
		t.Stages = append(t.Stages, engine.Stage{
			Name: engine.StageName(s.Name), Duration: time.Duration(s.NS), Calls: s.Calls,
		})
	}
	for _, c := range w.Candidates {
		t.Candidates = append(t.Candidates, engine.Candidate{
			Strategy: c.Strategy, IterationII: c.IterationII, Err: c.Error, Won: c.Won,
		})
	}
	return t
}

// EncodeCacheEntry writes one snapshot row: the entry as compact JSON,
// HTML escaping off, one line.
func EncodeCacheEntry(w io.Writer, e pipeline.CacheEntry) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(FromCacheEntry(e))
}

// DecodeCacheEntry reads one snapshot row or peer answer (strict:
// unknown fields and trailing garbage rejected) and rebuilds the entry.
func DecodeCacheEntry(r io.Reader) (pipeline.CacheEntry, error) {
	var row CacheEntry
	if err := DecodeStrict(r, &row); err != nil {
		return pipeline.CacheEntry{}, err
	}
	return row.Core()
}

// maxSnapshotLine bounds one snapshot row; far above any admissible
// compile result but small enough to fail fast on a garbage file.
const maxSnapshotLine = 64 << 20

// SaveCache snapshots a pipeline's completed cache entries as NDJSON,
// one CacheEntry per line, sorted by key (Export's order) so the same
// cache contents always serialize to the same bytes.  It returns the
// number of rows written.
func SaveCache(w io.Writer, p *pipeline.Pipeline) (int, error) {
	bw := bufio.NewWriter(w)
	entries := p.Export()
	for _, e := range entries {
		if err := EncodeCacheEntry(bw, e); err != nil {
			return 0, fmt.Errorf("snapshot %q: %w", e.Key, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// LoadCache seeds a pipeline from an NDJSON snapshot, returning how
// many rows were inserted (rows whose key is already cached are
// skipped, not counted).  Any undecodable or inconsistent row aborts
// the load with an error naming the line: a snapshot is a trusted
// local artifact, and a corrupt one should be deleted, not partially
// believed.
func LoadCache(r io.Reader, p *pipeline.Pipeline) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxSnapshotLine)
	seeded, line := 0, 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		e, err := DecodeCacheEntry(bytes.NewReader(sc.Bytes()))
		if err != nil {
			return seeded, fmt.Errorf("snapshot line %d: %w", line, err)
		}
		if p.Seed(e.Key, e.Res) {
			seeded++
		}
	}
	if err := sc.Err(); err != nil {
		return seeded, fmt.Errorf("snapshot line %d: %w", line+1, err)
	}
	return seeded, nil
}
