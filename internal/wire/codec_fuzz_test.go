package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
)

// legacyGraph is the reflective graph codec that ddg's hand-written one
// replaced, kept as the oracle of FuzzDecodeCompileRequest: the same
// DTO, decoded by a nested json.Decoder that re-imposes
// DisallowUnknownFields (an UnmarshalJSON does not inherit it from the
// outer decoder), then built and validated through ddg's API.
type legacyGraph struct{ g *ddg.Graph }

type legacyGraphJSON struct {
	Name         string           `json:"name"`
	UnrollFactor int              `json:"unroll_factor,omitempty"`
	Nodes        []legacyNodeJSON `json:"nodes"`
	Edges        []legacyEdgeJSON `json:"edges"`
}

type legacyNodeJSON struct {
	Name string `json:"name"`
	Op   string `json:"op"`
	Orig *int   `json:"orig,omitempty"`
	Copy int    `json:"copy,omitempty"`
}

type legacyEdgeJSON struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Latency  int    `json:"latency"`
	Distance int    `json:"distance,omitempty"`
	Kind     string `json:"kind"`
}

func (lg *legacyGraph) MarshalJSON() ([]byte, error) {
	g := lg.g
	out := legacyGraphJSON{Name: g.Name, Nodes: []legacyNodeJSON{}, Edges: []legacyEdgeJSON{}}
	if g.UnrollFactor != 1 {
		out.UnrollFactor = g.UnrollFactor
	}
	for _, n := range g.Nodes() {
		nj := legacyNodeJSON{Name: n.Name, Op: n.Class.String(), Copy: n.Copy}
		if n.Orig != n.ID {
			orig := n.Orig
			nj.Orig = &orig
		}
		out.Nodes = append(out.Nodes, nj)
	}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, legacyEdgeJSON{
			From: e.From, To: e.To, Latency: e.Latency,
			Distance: e.Distance, Kind: e.Kind.String(),
		})
	}
	return json.Marshal(out)
}

func (lg *legacyGraph) UnmarshalJSON(data []byte) error {
	var in legacyGraphJSON
	jd := json.NewDecoder(bytes.NewReader(data))
	jd.DisallowUnknownFields()
	if err := jd.Decode(&in); err != nil {
		return err
	}
	dec := ddg.New(in.Name)
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
		kind, ok := ddg.EdgeKindByName(ej.Kind)
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
	lg.g = dec
	return nil
}

// legacyLoop, legacyCompileRequest and legacyBatchRequest mirror
// corpus.Loop, CompileRequest and BatchRequest field for field, with
// the graph swapped for legacyGraph; checkLegacyMirror keeps them in
// step.
type legacyLoop struct {
	Graph  *legacyGraph `json:"graph"`
	Iters  int          `json:"iters,omitempty"`
	Weight int          `json:"weight,omitempty"`
	Bench  string       `json:"bench,omitempty"`
}

type legacyCompileRequest struct {
	V             int         `json:"v"`
	LoopRef       string      `json:"loop_ref,omitempty"`
	Loop          *legacyLoop `json:"loop,omitempty"`
	MachineRef    string      `json:"machine_ref,omitempty"`
	Machine       *Machine    `json:"machine,omitempty"`
	Options       *Options    `json:"options,omitempty"`
	TimeoutMS     int         `json:"timeout_ms,omitempty"`
	AllowDegraded bool        `json:"allow_degraded,omitempty"`
}

type legacyBatchRequest struct {
	V        int                    `json:"v"`
	Requests []legacyCompileRequest `json:"requests"`
}

// checkLegacyMirror fails when a mirror's field names or json tags
// drift from the type it stands in for.
func checkLegacyMirror(tb testing.TB) {
	tb.Helper()
	for _, pair := range [][2]any{{legacyLoop{}, corpus.Loop{}}, {legacyCompileRequest{}, CompileRequest{}},
		{legacyBatchRequest{}, BatchRequest{}}} {
		mt, rt := reflect.TypeOf(pair[0]), reflect.TypeOf(pair[1])
		if mt.NumField() != rt.NumField() {
			tb.Fatalf("%s has %d fields, %s has %d", mt, mt.NumField(), rt, rt.NumField())
		}
		for i := 0; i < rt.NumField(); i++ {
			mf, rf := mt.Field(i), rt.Field(i)
			if mf.Name != rf.Name || mf.Tag != rf.Tag {
				tb.Fatalf("%s field %d is %s `%s`, %s has %s `%s`", mt, i, mf.Name, mf.Tag, rt, rf.Name, rf.Tag)
			}
		}
	}
}

// requestSeeds are FuzzDecodeCompileRequest's seed corpus: the golden
// request, corpus and synthetic loops, and the decode corner cases the
// hand-written codec must get right.
func requestSeeds(tb testing.TB) []string {
	tb.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", "compile_request.json"))
	if err != nil {
		tb.Fatal(err)
	}
	seeds := []string{string(golden)}
	loops := []*corpus.Loop{{Graph: ddg.SampleFigure7(), Iters: 16, Bench: "fixture"}}
	for _, b := range corpus.Trimmed([]string{"tomcatv", "fpppp"}, 2) {
		loops = append(loops, b.Loops...)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		g, err := ddg.Synth(ddg.SynthSpec{Seed: seed, Nodes: 8 + 12*int(seed),
			RecurrenceDensity: 0.25, ExtraEdgeDensity: 0.5, ClusterAffinity: 0.6})
		if err != nil {
			tb.Fatal(err)
		}
		loops = append(loops, &corpus.Loop{Graph: g, Iters: 64})
	}
	loops = append(loops, &corpus.Loop{Graph: ddg.SampleFigure7().Unroll(3)})
	for _, l := range loops {
		req := CompileRequest{V: Version, Loop: l, MachineRef: "4-cluster/B1/L1",
			Options: &Options{Strategy: "selective"}}
		seeds = append(seeds, string(AppendCompileRequest(nil, &req)))
	}
	const two = `{"name":"a","op":"iadd"},{"name":"b","op":"fadd"}`
	for _, g := range []string{
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":1,"kind":"true"}]}`,
		// Case-insensitive keys, the Kelvin sign folding to k included.
		`{"NAME":"g","Nodes":[{"nAmE":"a","OP":"iadd"}],"EDGES":[{"From":0,"TO":0,"Latency":1,"DISTANCE":1,"\u212aind":"true"}]}`,
		// Repeated keys: the last value wins; repeated arrays reuse elements.
		`{"name":"x","name":"g","nodes":[` + two + `,{"name":"c","op":"load","orig":1,"copy":2}],"nodes":[{"op":"iadd"}],"nodes":[{"name":"d","op":"iadd"},{"op":"fmul"},{"op":"store"}],"edges":[]}`,
		`{"name":"g","nodes":[{"name":"a","op":"iadd","orig":0,"orig":null,"copy":1,"copy":null}],"edges":null,"edges":[]}`,
		// null everywhere a value may stand.
		`{"name":null,"unroll_factor":null,"nodes":[null,{"name":null,"op":"iadd","orig":null}],"edges":[null]}`,
		`{"name":"g","nodes":null,"edges":null}`,
		`{"name":"g","unroll_factor":2,"nodes":[{"name":"a","op":"iadd"},{"name":"a","op":"iadd","orig":0,"copy":1}],"edges":[]}`,
		// Escapes, invalid UTF-8, lone and paired surrogates.
		`{"name":"\u00e9\ud83d\ude00\ud800x\udc00\"\\\/\b\f\n\r\t<>&\u2028","nodes":[{"name":"` + "\xff\xfe" + `","op":"iadd"}],"edges":[]}`,
		// Ints: fractions, exponents, strings and overflow all reject.
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":1.5,"kind":"true"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":1e3,"kind":"true"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":"3","kind":"true"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":-0,"to":1,"latency":9223372036854775807,"kind":"true"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":9223372036854775808,"kind":"true"}]}`,
		// Strictness and validation.
		`{"name":"g","nodes":[{"name":"a","op":"iadd","opp":1}],"edges":[]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":1,"kind":"true","x":[{}]}]}`,
		`{"name":"g","nodes":[],"edges":[],"extra":null}`,
		`{"name":"g","nodes":[{"name":"a","op":"warp"}],"edges":[]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":2,"latency":1,"kind":"true"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":-1,"kind":"true"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":1,"distance":-1,"kind":"true"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":1,"kind":"true"},{"from":1,"to":0,"latency":1,"kind":"anti"}]}`,
		`{"name":"g","nodes":[` + two + `],"edges":[{"from":0,"to":1,"latency":1,"kind":"psychic"}]}`,
		`{"name":"g","unroll_factor":-2,"nodes":[],"edges":[]}`,
		`{"name":"g","nodes":[{"name":"a","op":"iadd","orig":5}],"edges":[]}`,
		`{"name":"g","nodes":[{"name":"a","op":"iadd","copy":-1}],"edges":[]}`,
		// Values of the wrong kind.
		`5`, `"g"`, `[]`, `true`, `null`, `{}`,
		`{"name":1,"nodes":[],"edges":[]}`, `{"name":"g","nodes":{},"edges":[]}`,
		`{"name":"g","nodes":[[]],"edges":[]}`, `{"name":"g","nodes":[{"name":"a","op":"iadd","orig":true}],"edges":[]}`,
		" \t\n{ \"name\" : \"g\" , \"nodes\" : [ ] , \"edges\" : [ ] } \r\n",
	} {
		seeds = append(seeds, `{"v":1,"loop":{"graph":`+g+`,"iters":8},"machine_ref":"unified"}`)
	}
	return append(seeds,
		`{"v":1,"loop":{"graph":null},"machine_ref":"unified"}`,
		`{"v":1,"loop":{"graph":{"name":"a","nodes":[],"edges":[]},"graph":{"name":"b","nodes":[],"edges":[]}}}`,
		`{"v":1,"loop":null,"loop_ref":"tomcatv.loop0"}`,
		`{"v":1,"loop":{"graph":{"name":"g","nodes":[],"edges":[]}}} {}`,
		`{"v":1,"loop":{"graph":{"name":"g","nodes":[],"edges":[]},"bogus":1}}`,
		// Every envelope field, null, repeated, mis-cased and mistyped.
		`{"v":1,"loop_ref":"a","loop_ref":null,"MACHINE_REF":"unified","timeout_ms":5,"timeout_ms":null,"allow_degraded":true,"allow_degraded":null}`,
		`{"v":1,"machine":{"name":"m","clusters":2,"fus":[1,2,3],"hetero":[[1,2,3],[4,5,6,7],[8],null,[]],"regs":32,"buses":1,"bus_latency":2}}`,
		`{"v":1,"machine":{"fus":[1,2,3],"fus":[9],"hetero":[[1,2,3],[4,5,6]],"hetero":[[7],null],"fus":null}}`,
		`{"v":1,"machine":{"fus":[1,2,3,{"x":[1e9]}]},"machine":{"fus":[null,5]}}`,
		`{"v":1,"machine":{"fus":{}}}`, `{"v":1,"machine":{"fus":[1.5]}}`, `{"v":1,"machine":{"hetero":[[1,2,3,4.5]]}}`,
		`{"v":1,"machine":{"clusters":1,"regs":8,"bogus":[]}}`, `{"v":1,"machine":{"fus":[1,2,3,]}}`,
		`{"v":1,"options":{"scheduler":"ne","strategy":"sweep:<k>","factor":2,"policy":"first_fit","max_ii":9,"force_ii":3,"parallel_ii":4,"exact":{"max_nodes":1,"max_steps":9223372036854775807,"max_ii":2}}}`,
		`{"v":1,"options":{"exact":{"max_steps":1},"exact":{"max_ii":3},"exact":null,"exact":{}}}`,
		`{"v":1,"options":{"exact":{"max_steps":9223372036854775808}}}`, `{"v":1,"options":{"exact":{"steps":1}}}`,
		`{"v":1,"options":{"Strategy":"selective","FORCE_II":2}}`, `{"v":1,"options":{"factor":"2"}}`,
		`{"v":1,"options":null,"machine":null,"loop":null}`, `{"v":1,"loop":{"iters":4,"weight":2,"bench":"b","iters":null}}`,
		`{"v":1,"loop":{"graph":[]}}`, `{"v":1,"loop":{"graph":"g"}}`, `{"v":1,"loop":{"graph":5}}`,
		`{"v":1,"loop":{"graph":{"name":"a","nodes":[{"name":"x","op":"iadd"}],"edges":[]},"graph":{"name":"b","nodes":[],"edges":[]}}}`,
		`{"v":1,"loop":{"graph":{"name":"a","nodes":[{"name":"x","op":"warp"}],"edges":[]},"graph":{"name":"b","nodes":[],"edges":[]}}}`,
		`{"v":true}`, `{"v":1.0}`, `{"v":-0}`, `{"\u0076":1}`, `{"v":1,"v":2}`, `{"v":1}garbage`, `{"v":1}]`, `{"v":1}}`,
		`{"v":1,"loop_ref":"tomcatv.loop0","machine_ref":"unified"}]]garbage`, `{"v":1} `, ``, `  `, `nul`,
	)
}

// FuzzDecodeCompileRequest runs the server's request decoder,
// DecodeCompileRequest, against reflective DecodeStrict over the
// mirror whose graph is the reflective codec the hand-written one
// replaced.  Both must accept or reject alike.  An accepted request
// must decode to the value reflective DecodeStrict gives with the
// hand-written graph codec, with the same graph fingerprint as the
// mirror's, and re-encoding must give the same bytes:
// AppendCompileRequest and json.Marshal on the new side, the old
// MarshalJSON under json.Marshal on the other.
func FuzzDecodeCompileRequest(f *testing.F) {
	checkLegacyMirror(f)
	for _, s := range requestSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, reflective CompileRequest
		var want legacyCompileRequest
		gotErr := DecodeCompileRequest(data, &got)
		wantErr := DecodeStrict(bytes.NewReader(data), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoders disagree on %q:\nhand-written: %v\nreflective:   %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if err := DecodeStrict(bytes.NewReader(data), &reflective); err != nil {
			t.Fatalf("reflective envelope rejects %q: %v", data, err)
		}
		if !reflect.DeepEqual(got, reflective) {
			t.Fatalf("values differ on %q:\nhand-written: %+v\nreflective:   %+v", data, got, reflective)
		}
		checkSameRequest(t, data, &got, &want)
	})
}

// checkSameRequest compares an accepted request with its legacy
// mirror: graph fingerprint and re-encoded bytes.
func checkSameRequest(t *testing.T, data []byte, got *CompileRequest, want *legacyCompileRequest) {
	t.Helper()
	if got.Loop != nil && got.Loop.Graph != nil {
		if fp, old := got.Loop.Graph.Fingerprint(), want.Loop.Graph.g.Fingerprint(); fp != old {
			t.Fatalf("fingerprints differ on %q: %s vs %s", data, fp, old)
		}
	}
	old, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if hand := AppendCompileRequest(nil, got); !bytes.Equal(hand, old) {
		t.Fatalf("re-encoding differs on %q:\nhand-written: %s\nreflective:   %s", data, hand, old)
	}
	if viaJSON, err := json.Marshal(got); err != nil || !bytes.Equal(viaJSON, old) {
		t.Fatalf("json.Marshal with the new MarshalJSON differs on %q (%v):\n%s\n%s", data, err, viaJSON, old)
	}
}

// batchSeeds are FuzzDecodeBatchRequest's seed corpus: request seeds
// wrapped as batches, and the batch envelope's own corner cases.
func batchSeeds(tb testing.TB) []string {
	tb.Helper()
	var seeds []string
	for i, s := range requestSeeds(tb) {
		if i%4 == 0 {
			seeds = append(seeds, `{"v":1,"requests":[`+s+`]}`)
		}
	}
	const a, b = `{"v":1,"loop_ref":"swim.loop0","machine_ref":"unified"}`, `{"v":1,"options":{"strategy":"selective"}}`
	return append(seeds,
		`{"v":1,"requests":[`+a+`,`+b+`]}`,
		// Repeated arrays decode over earlier elements without zeroing.
		`{"v":1,"requests":[`+a+`,`+b+`],"requests":[{"timeout_ms":3}]}`,
		`{"v":1,"requests":[`+a+`,`+b+`],"requests":[],"requests":[{"machine_ref":"x"},{},{}]}`,
		`{"V":1,"REQUESTS":[null,`+a+`]}`, `{"v":1,"requests":null}`, `{"v":1,"requests":[]}`, `{"v":1}`,
		`{"v":1,"requests":{}}`, `{"v":1,"requests":[[]]}`, `{"v":1,"requests":[`+a+`],"extra":1}`,
		`{"v":1,"requests":[{"v":1,"bogus":1}]}`, `{"v":1,"requests":[`+a+`]}]`, `{"v":1,"requests":[`+a+`]}}`,
		`{"v":1,"requests":[`+a+`,]}`, `null`, `[]`, ``,
	)
}

// FuzzDecodeBatchRequest holds DecodeBatchRequest to reflective
// DecodeStrict as FuzzDecodeCompileRequest holds DecodeCompileRequest.
func FuzzDecodeBatchRequest(f *testing.F) {
	checkLegacyMirror(f)
	for _, s := range batchSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, reflective BatchRequest
		var want legacyBatchRequest
		gotErr := DecodeBatchRequest(data, &got)
		wantErr := DecodeStrict(bytes.NewReader(data), &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoders disagree on %q:\nhand-written: %v\nreflective:   %v", data, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if err := DecodeStrict(bytes.NewReader(data), &reflective); err != nil {
			t.Fatalf("reflective envelope rejects %q: %v", data, err)
		}
		if !reflect.DeepEqual(got, reflective) {
			t.Fatalf("values differ on %q:\nhand-written: %+v\nreflective:   %+v", data, got, reflective)
		}
		if len(got.Requests) != len(want.Requests) {
			t.Fatalf("%d requests vs %d on %q", len(got.Requests), len(want.Requests), data)
		}
		for i := range got.Requests {
			checkSameRequest(t, data, &got.Requests[i], &want.Requests[i])
		}
		old, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		if hand := AppendBatchRequest(nil, &got); !bytes.Equal(hand, old) {
			t.Fatalf("re-encoding differs on %q:\nhand-written: %s\nreflective:   %s", data, hand, old)
		}
	})
}

// responseSeeds are FuzzDecodeCompileResponse's seed corpus: every
// golden result as a compile response and a batch line, and the
// lenient-decode corner cases.
func responseSeeds(tb testing.TB) []string {
	tb.Helper()
	var seeds []string
	for _, name := range []string{"result_exact.json", "result_fellback.json", "result_stages.json"} {
		res, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds,
			`{"v":1,"result":`+string(res)+`}`,
			`{"v":1,"index":3,"result":`+string(res)+`}`)
	}
	return append(seeds,
		`{"v":1,"index":0,"error":{"code":"over_capacity","message":"busy","retry_after_ms":250}}`,
		`{"v":1,"index":2,"error":null,"result":null}`,
		// Unknown fields of every kind are skipped.
		`{"v":1,"extra":{"a":[1,2.5e-3,{"b":null}],"c":"\u0041"},"result":{"ii":2,"new_field":[[]],"placements":[{"node":0,"x":true}]}}`,
		// Case-insensitive keys and repeats, reuse of earlier elements.
		`{"V":1,"RESULT":{"II":3,"Placements":[{"node":1,"cluster":1},{"node":2,"fu":1}],"placements":[{"node":5}],"placements":[{"cycle":9},{"cycle":8},{"cycle":7}]}}`,
		`{"v":1,"result":{"ii":2},"result":{"min_ii":1}}`,
		`{"v":1,"result":{"causes":{"fu":2,"reg":null},"causes":{"comm":1},"max_live":[3,null,1],"max_live":[]}}`,
		`{"v":1,"result":{"decision":{"unrolled":true},"decision":null,"exact":{"steps":5},"exact":{"proved":true}}}`,
		`{"v":1,"result":{"stages":{"stages":[{"name":"a","ns":1}],"candidates":[{"strategy":"s","iteration_ii":0.5,"won":true}],"ii_trajectory":[1,2]}}}`,
		`{"v":1,"result":{"graph":"\u00e9\ud83d\ude00\ud800x\"\\\/\b\f\n\r\t<>&`+"\xff"+`","iteration_ii":-0,"ii":null,"bus_limited":null}}`,
		// Rejections: mistyped values, out-of-range numbers, torn JSON.
		`{"v":1,"result":{"ii":1.5}}`, `{"v":1,"result":{"ii":1e3}}`, `{"v":"1"}`,
		`{"v":1,"result":{"iteration_ii":1e400}}`, `{"v":1,"result":{"bus_limited":1}}`,
		`{"v":1,"result":{"placements":{}}}`, `{"v":1,"result":5}`, `{"v":1,"result":{"ii":2`,
		`{"v":1,"result":{"ii":2}} x`, `{"v":1,}`, `{"v":01}`, `{"v":1,"extra":[1,]}`,
		`[]`, `null`, ``, ` `, "{\"v\":1}\x00", "{\"v\":1,\"result\":\x00}", `{"v":1,"extra":"`+"\x01"+`"}`, `{"v":1,"extra":"\x"}`,
		" {\"v\" :1 ,\n\"result\": {\"ii\":\t2} }\n",
	)
}

// FuzzDecodeCompileResponse runs DecodeCompileResponse and
// DecodeBatchItem against json.Unmarshal: both must accept or reject
// alike and, on accept, produce reflect.DeepEqual values.
func FuzzDecodeCompileResponse(f *testing.F) {
	for _, s := range responseSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got CompileResponse
		agree(t, data, json.Unmarshal(data, &want), DecodeCompileResponse(data, &got), &want, &got)
		var wantItem, gotItem BatchItem
		agree(t, data, json.Unmarshal(data, &wantItem), DecodeBatchItem(data, &gotItem), &wantItem, &gotItem)
	})
}

func agree(t *testing.T, data []byte, wantErr, gotErr error, want, got any) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%T: decoders disagree on %q:\nhand-written:   %v\njson.Unmarshal: %v", want, data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%T: values differ on %q:\nhand-written:   %+v\njson.Unmarshal: %+v", want, data, got, want)
	}
}

// FuzzEncodeCompileResponse holds AppendCompileResponse and
// AppendBatchItem to a json.Encoder with SetEscapeHTML(false): same
// bytes, or both fail.  Values come from the response seeds through
// json.Unmarshal, then a raw string (invalid UTF-8 survives there) and
// an arbitrary float (NaN and ±Inf included) are written over a few
// fields.
func FuzzEncodeCompileResponse(f *testing.F) {
	for i, s := range responseSeeds(f) {
		f.Add([]byte(s), "a<b>&c\u2028\xff", float64(i)/3)
	}
	f.Add([]byte(`{"v":1,"result":{"stages":{"candidates":[{"strategy":"s"}]}}}`), "", math.NaN())
	f.Add([]byte(`{"v":1,"result":{}}`), "x", math.Inf(-1))
	for _, x := range []float64{1e-7, 1e21, 1e20, 123456789e-15, -0.0, 5e-324, math.MaxFloat64} {
		f.Add([]byte(`{"v":1,"index":2,"result":{"causes":{"b":1,"a":2}}}`), "é\t\"", x)
	}
	f.Fuzz(func(t *testing.T, data []byte, s string, x float64) {
		var resp CompileResponse
		var item BatchItem
		if json.Unmarshal(data, &resp) != nil {
			resp = CompileResponse{V: 1}
		}
		if json.Unmarshal(data, &item) != nil {
			item = BatchItem{V: 1, Error: &Error{Code: "c"}}
		}
		overlay := func(r *Result) {
			if r == nil {
				return
			}
			r.Graph, r.IterationII = s, x
			if r.Causes != nil {
				r.Causes[s] = len(s)
			}
			if r.Stages != nil && len(r.Stages.Candidates) > 0 {
				c := &r.Stages.Candidates[len(r.Stages.Candidates)-1]
				c.Error, c.IterationII = s, x
			}
		}
		overlay(resp.Result)
		overlay(item.Result)
		if item.Error != nil {
			item.Error.Message = s
		}
		encode := func(v any) ([]byte, error) {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			err := enc.Encode(v)
			return buf.Bytes(), err
		}
		want, wantErr := encode(&resp)
		got, gotErr := AppendCompileResponse(nil, &resp)
		sameEncoding(t, "CompileResponse", data, got, want, gotErr, wantErr)
		want, wantErr = encode(&item)
		got, gotErr = AppendBatchItem([]byte("prefix"), &item)
		if gotErr == nil {
			if !bytes.HasPrefix(got, []byte("prefix")) {
				t.Fatalf("AppendBatchItem dropped dst: %q", got)
			}
			got = got[len("prefix"):]
		}
		sameEncoding(t, "BatchItem", data, got, want, gotErr, wantErr)
	})
}

func sameEncoding(t *testing.T, what string, data, got, want []byte, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: encoders disagree on %q:\nhand-written: %v\njson.Encoder: %v", what, data, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes differ on %q:\nhand-written: %s\njson.Encoder: %s", what, data, got, want)
	}
}
