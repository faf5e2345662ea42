// JSON codec and content fingerprint for dependence graphs: the wire
// representation the scheduling service (internal/wire, cmd/schedd)
// ships loops in, and the structural identity the compile cache keys on.
//
// The JSON shape is stable and versioned by the wire envelope around it
// (internal/wire.Version); within a version it only grows
// backward-compatibly.  Node IDs are implicit: nodes[i] has ID i, and
// edges reference those indices.
//
// The codec is written by hand over internal/jsonx; it runs on every
// compile request, where encoding/json's reflection cost more than the
// cache hit it leads to.  It keeps encoding/json's observable
// behaviour, which the differential fuzz targets FuzzDecodeCompileRequest
// and FuzzDecodeBatchRequest (internal/wire) check against the
// reflective codec it replaced:
//
//   - MarshalJSON writes exactly what json.Marshal writes for the
//     graphJSON DTO, HTML escaping included.
//   - UnmarshalJSON and DecodeJSON are strict: an unknown field in the
//     graph, a node or an edge is an error, never a silently zeroed
//     latency.
//   - Keys match case-insensitively (bytes.EqualFold).  When a key
//     repeats, the last value wins, and a repeated array decodes over
//     the earlier one's elements without zeroing them.
//   - null leaves a scalar unchanged and sets orig or an array to nil.
//   - An int field rejects a fraction, an exponent or a string.

package ddg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"

	"repro/internal/jsonx"
	"repro/internal/machine"
)

// graphJSON is the wire shape of a Graph.
type graphJSON struct {
	Name         string     `json:"name"`
	UnrollFactor int        `json:"unroll_factor,omitempty"`
	Nodes        []nodeJSON `json:"nodes"`
	Edges        []edgeJSON `json:"edges"`
}

// nodeJSON is one operation; its ID is its index in the nodes array.
type nodeJSON struct {
	Name string `json:"name"`
	Op   string `json:"op"`
	Orig *int   `json:"orig,omitempty"`
	Copy int    `json:"copy,omitempty"`
}

// edgeJSON is one dependence between node indices.
type edgeJSON struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Latency  int    `json:"latency"`
	Distance int    `json:"distance,omitempty"`
	Kind     string `json:"kind"`
}

// The json names of each DTO's fields, for jsonx.Match.
var (
	graphFields = []string{"name", "unroll_factor", "nodes", "edges"}
	nodeFields  = []string{"name", "op", "orig", "copy"}
	edgeFields  = []string{"from", "to", "latency", "distance", "kind"}
)

func (in *graphJSON) decode(d *jsonx.Decoder) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, graphFields) {
		case "name":
			d.String(&in.Name)
		case "unroll_factor":
			d.Int(&in.UnrollFactor)
		case "nodes":
			jsonx.Slice(d, &in.Nodes, decodeNode)
		case "edges":
			jsonx.Slice(d, &in.Edges, decodeEdge)
		default:
			d.UnknownField(key)
		}
	}
}

func decodeNode(d *jsonx.Decoder, n *nodeJSON) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, nodeFields) {
		case "name":
			d.String(&n.Name)
		case "op":
			d.String(&n.Op)
		case "orig":
			jsonx.Ptr(d, &n.Orig, (*jsonx.Decoder).Int)
		case "copy":
			d.Int(&n.Copy)
		default:
			d.UnknownField(key)
		}
	}
}

func decodeEdge(d *jsonx.Decoder, e *edgeJSON) {
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); jsonx.Match(key, edgeFields) {
		case "from":
			d.Int(&e.From)
		case "to":
			d.Int(&e.To)
		case "latency":
			d.Int(&e.Latency)
		case "distance":
			d.Int(&e.Distance)
		case "kind":
			d.String(&e.Kind)
		default:
			d.UnknownField(key)
		}
	}
}

// edgeKindNames maps the wire names; the zero kind is "true".
var edgeKindNames = map[string]EdgeKind{
	"true":   DepTrue,
	"anti":   DepAnti,
	"output": DepOutput,
	"mem":    DepMem,
}

// EdgeKindByName resolves a wire name ("true", "anti", "output", "mem")
// to its EdgeKind; it returns false for unknown names.
func EdgeKindByName(name string) (EdgeKind, bool) {
	k, ok := edgeKindNames[name]
	return k, ok
}

// MarshalJSON encodes the graph in the service wire shape.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return g.AppendJSON(nil), nil
}

// AppendJSON appends the graph's wire encoding to dst: byte for byte
// what json.Marshal writes for the graphJSON DTO, so encoders that
// embed a graph need no compaction pass over it.
func (g *Graph) AppendJSON(dst []byte) []byte {
	// A node encodes to about 32 bytes and an edge to about 48: one
	// allocation covers a typical graph.
	dst = slices.Grow(dst, 64+32*len(g.nodes)+48*len(g.edges))
	open := len(dst)
	dst = jsonx.AppendField(dst, open, "name")
	dst = jsonx.AppendString(dst, g.Name)
	if g.UnrollFactor != 1 && g.UnrollFactor != 0 {
		dst = jsonx.AppendField(dst, open, "unroll_factor")
		dst = jsonx.AppendInt(dst, g.UnrollFactor)
	}
	dst = append(dst, `,"nodes":[`...)
	for i, n := range g.nodes {
		if i > 0 {
			dst = append(dst, ',')
		}
		at := len(dst)
		dst = jsonx.AppendField(dst, at, "name")
		dst = jsonx.AppendString(dst, n.Name)
		dst = jsonx.AppendField(dst, at, "op")
		dst = jsonx.AppendString(dst, n.Class.String())
		if n.Orig != n.ID {
			dst = jsonx.AppendField(dst, at, "orig")
			dst = jsonx.AppendInt(dst, n.Orig)
		}
		if n.Copy != 0 {
			dst = jsonx.AppendField(dst, at, "copy")
			dst = jsonx.AppendInt(dst, n.Copy)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"edges":[`...)
	for i, e := range g.edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		at := len(dst)
		dst = jsonx.AppendField(dst, at, "from")
		dst = jsonx.AppendInt(dst, e.From)
		dst = jsonx.AppendField(dst, at, "to")
		dst = jsonx.AppendInt(dst, e.To)
		dst = jsonx.AppendField(dst, at, "latency")
		dst = jsonx.AppendInt(dst, e.Latency)
		if e.Distance != 0 {
			dst = jsonx.AppendField(dst, at, "distance")
			dst = jsonx.AppendInt(dst, e.Distance)
		}
		dst = jsonx.AppendField(dst, at, "kind")
		dst = jsonx.AppendString(dst, e.Kind.String())
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

// UnmarshalJSON decodes a graph from the wire shape in one pass and
// validates it, as DecodeJSON does.
func (g *Graph) UnmarshalJSON(data []byte) error {
	d := jsonx.NewDecoder(data)
	g.DecodeJSON(d)
	return d.End()
}

// DecodeJSON decodes one graph value from d into g and validates it; a
// graph that fails Validate (unknown op, out-of-range edge, negative
// distance, distance-0 cycle) is rejected, and every failure becomes
// d's error.  Decoding is strict and follows encoding/json's rules
// (see the file comment), whatever the decoder around the graph does
// with its own fields.  The wire request decoders call it on their own
// decoder, so the graph's bytes are scanned once, in place.
func (g *Graph) DecodeJSON(d *jsonx.Decoder) {
	var in graphJSON
	in.decode(d)
	if d.Err() != nil {
		return
	}
	if err := g.build(&in); err != nil {
		d.Fail(err)
	}
}

// build replaces g's contents with the decoded wire shape in, checking
// every index and the result.
func (g *Graph) build(in *graphJSON) error {
	dec := New(in.Name)
	dec.nodes = make([]*Node, 0, len(in.Nodes))
	dec.out = make([][]*Edge, 0, len(in.Nodes))
	dec.in = make([][]*Edge, 0, len(in.Nodes))
	dec.edges = make([]*Edge, 0, len(in.Edges))
	if in.UnrollFactor != 0 {
		dec.UnrollFactor = in.UnrollFactor
	}
	if dec.UnrollFactor < 1 {
		return fmt.Errorf("ddg: graph %q: unroll_factor %d, want >= 1", in.Name, dec.UnrollFactor)
	}
	for i, nj := range in.Nodes {
		class, ok := machine.OpClassByName(nj.Op)
		if !ok {
			return fmt.Errorf("ddg: graph %q: node %d has unknown op %q", in.Name, i, nj.Op)
		}
		n := dec.AddNode(nj.Name, class)
		if nj.Orig != nil {
			if *nj.Orig < 0 || *nj.Orig >= len(in.Nodes) {
				return fmt.Errorf("ddg: graph %q: node %d orig %d out of range", in.Name, i, *nj.Orig)
			}
			n.Orig = *nj.Orig
		}
		if nj.Copy < 0 {
			return fmt.Errorf("ddg: graph %q: node %d has negative copy index", in.Name, i)
		}
		n.Copy = nj.Copy
	}
	for i, ej := range in.Edges {
		kind, ok := EdgeKindByName(ej.Kind)
		if !ok {
			return fmt.Errorf("ddg: graph %q: edge %d has unknown kind %q", in.Name, i, ej.Kind)
		}
		if ej.From < 0 || ej.From >= len(in.Nodes) || ej.To < 0 || ej.To >= len(in.Nodes) {
			return fmt.Errorf("ddg: graph %q: edge %d (%d->%d) out of range", in.Name, i, ej.From, ej.To)
		}
		if ej.Distance < 0 {
			return fmt.Errorf("ddg: graph %q: edge %d has negative distance", in.Name, i)
		}
		if ej.Latency < 0 {
			return fmt.Errorf("ddg: graph %q: edge %d has negative latency", in.Name, i)
		}
		dec.AddEdge(ej.From, ej.To, ej.Latency, ej.Distance, kind)
	}
	if err := dec.Validate(); err != nil {
		return err
	}
	// Field-wise copy: Graph embeds a lock guarding its caches, so the
	// struct must not be copied wholesale.  The receiver's fingerprint
	// and memoized analyses are reset — decoding into a graph whose
	// Fingerprint was already taken replaces its identity rather than
	// leaking the stale hash.
	g.Name = dec.Name
	g.UnrollFactor = dec.UnrollFactor
	g.nodes = dec.nodes
	g.edges = dec.edges
	g.out = dec.out
	g.in = dec.in
	g.invalidate()
	return nil
}

// Fingerprint returns a content hash of the graph — name, unroll factor,
// every node (name, class, unroll provenance) and every edge — as a
// fixed-length hex string.  Two graphs with equal fingerprints schedule
// identically and are indistinguishable in reports, so the compile cache
// (internal/pipeline) uses it as the loop's identity: structurally
// identical loops deduplicate even when they arrive as distinct decoded
// objects, e.g. from separate service requests.
//
// The hash is cached after the first call; mutating the graph
// (AddNode/AddEdge/UnmarshalJSON) resets the cache, so the fingerprint
// always reflects current contents.  Use Clone to duplicate a graph —
// a plain struct copy would alias the cache and is rejected by go vet.
func (g *Graph) Fingerprint() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fp == "" {
		h := sha256.New()
		var buf [8]byte
		writeInt := func(v int) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		writeStr := func(s string) {
			writeInt(len(s))
			h.Write([]byte(s))
		}
		writeStr(g.Name)
		writeInt(g.UnrollFactor)
		writeInt(len(g.nodes))
		for _, n := range g.nodes {
			writeStr(n.Name)
			writeInt(int(n.Class))
			writeInt(n.Orig)
			writeInt(n.Copy)
		}
		writeInt(len(g.edges))
		for _, e := range g.edges {
			writeInt(e.From)
			writeInt(e.To)
			writeInt(e.Latency)
			writeInt(e.Distance)
			writeInt(int(e.Kind))
		}
		g.fp = hex.EncodeToString(h.Sum(nil)[:16])
	}
	return g.fp
}
