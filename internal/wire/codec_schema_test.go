package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ddg"
	"repro/internal/machine"
)

// filler sets every exported field reachable from a value to a
// distinct non-zero value, so a hand codec that drops a field — one
// added to the schema after the codec was written, say — differs from
// encoding/json on the result.
type filler struct {
	t *testing.T
	n int
}

var graphType = reflect.TypeOf((*ddg.Graph)(nil))

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d \"q\" \\ / <a&b> \n\t\x01 é \u2028 \xff", f.n))
	case reflect.Int:
		v.SetInt(int64(f.n))
	case reflect.Int64:
		v.SetInt(int64(f.n) << 36)
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		if v.Type() == graphType {
			v.Set(reflect.ValueOf(escapingGraph(f.t)))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k)
			f.fill(e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		f.t.Fatalf("filler: no rule for %s; teach it the new field's type", v.Type())
	}
}

// escapingGraph is a valid graph that sets every field the graph codec
// writes — unroll factor, orig, copy, distance, each edge kind — with
// names that need escaping.
func escapingGraph(t *testing.T) *ddg.Graph {
	g := ddg.New("g \"<&>\" \\ \u2028 é")
	g.UnrollFactor = 2
	a := g.AddNode("a\n\t\x01", machine.OpLoad)
	b := g.AddNode("b</script>", machine.OpFAdd)
	c := g.AddNode("c&c", machine.OpStore)
	b.Orig, b.Copy = a.ID, 1
	c.Copy = 2
	g.AddEdge(a.ID, b.ID, 2, 0, ddg.DepTrue)
	g.AddEdge(b.ID, c.ID, 1, 1, ddg.DepAnti)
	g.AddEdge(c.ID, a.ID, 0, 2, ddg.DepOutput)
	g.AddEdge(a.ID, c.ID, 1, 1, ddg.DepMem)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHandCodecsCoverSchema holds the hand codecs to encoding/json on
// values whose every field is set: the request encoders to
// json.Marshal, the response decoders to json.Unmarshal.
func TestHandCodecsCoverSchema(t *testing.T) {
	f := &filler{t: t}
	var req CompileRequest
	f.fill(reflect.ValueOf(&req).Elem())
	var batch BatchRequest
	f.fill(reflect.ValueOf(&batch).Elem())
	requests := []*CompileRequest{&req, {}, {V: 1, Options: &Options{}}, {Options: &Options{Exact: &ExactBudget{}}},
		{Machine: &Machine{}, Loop: &corpus.Loop{}}, {Machine: &Machine{Hetero: [][3]int{}}}}
	for _, r := range requests {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendCompileRequest(nil, r); !bytes.Equal(got, want) {
			t.Errorf("AppendCompileRequest differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}
	for _, b := range []*BatchRequest{&batch, {}, {V: 1, Requests: []CompileRequest{}}} {
		want, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBatchRequest(nil, b); !bytes.Equal(got, want) {
			t.Errorf("AppendBatchRequest differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}

	// The server's request decoders agree with the reflective envelope
	// and keep the graph's identity through a round trip.
	var back, reflective CompileRequest
	if err := DecodeCompileRequest(AppendCompileRequest(nil, &req), &back); err != nil {
		t.Fatal(err)
	}
	if err := DecodeStrict(bytes.NewReader(AppendCompileRequest(nil, &req)), &reflective); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, reflective) {
		t.Errorf("DecodeCompileRequest differs from DecodeStrict:\n got %+v\nwant %+v", back, reflective)
	}
	if back.Loop.Graph.Fingerprint() != req.Loop.Graph.Fingerprint() {
		t.Error("graph fingerprint changed through the hand codecs")
	}
	var backBatch, reflectiveBatch BatchRequest
	if err := DecodeBatchRequest(AppendBatchRequest(nil, &batch), &backBatch); err != nil {
		t.Fatal(err)
	}
	if err := DecodeStrict(bytes.NewReader(AppendBatchRequest(nil, &batch)), &reflectiveBatch); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(backBatch, reflectiveBatch) {
		t.Errorf("DecodeBatchRequest differs from DecodeStrict:\n got %+v\nwant %+v", backBatch, reflectiveBatch)
	}

	var resp CompileResponse
	f.fill(reflect.ValueOf(&resp).Elem())
	var item BatchItem
	f.fill(reflect.ValueOf(&item).Elem())
	// The server's response encoders write what its json.Encoder wrote.
	for _, c := range []struct {
		v      any
		append func() ([]byte, error)
	}{
		{&resp, func() ([]byte, error) { return AppendCompileResponse(nil, &resp) }},
		{&item, func() ([]byte, error) { return AppendBatchItem(nil, &item) }},
		{&CompileResponse{}, func() ([]byte, error) { return AppendCompileResponse(nil, &CompileResponse{}) }},
		{&BatchItem{}, func() ([]byte, error) { return AppendBatchItem(nil, &BatchItem{}) }},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(c.v); err != nil {
			t.Fatal(err)
		}
		got, err := c.append()
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%T: hand encoding differs from json.Encoder (%v):\n got %s\nwant %s", c.v, err, got, want.Bytes())
		}
	}
	for _, c := range []struct {
		v      any
		decode func([]byte) (any, any, error, error)
	}{
		{&resp, func(b []byte) (any, any, error, error) {
			var viaJSON, viaHand CompileResponse
			return &viaJSON, &viaHand, json.Unmarshal(b, &viaJSON), DecodeCompileResponse(b, &viaHand)
		}},
		{&item, func(b []byte) (any, any, error, error) {
			var viaJSON, viaHand BatchItem
			return &viaJSON, &viaHand, json.Unmarshal(b, &viaJSON), DecodeBatchItem(b, &viaHand)
		}},
	} {
		data, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		viaJSON, viaHand, jerr, herr := c.decode(data)
		if jerr != nil || herr != nil {
			t.Fatalf("%T: json.Unmarshal: %v, hand-written: %v", c.v, jerr, herr)
		}
		if !reflect.DeepEqual(viaJSON, viaHand) {
			t.Errorf("%T: hand decode differs from json.Unmarshal:\n got %+v\nwant %+v", c.v, viaHand, viaJSON)
		}
	}
}

// TestHandCodecsMatchGoldens runs every JSON golden through the hand
// codecs: request-side shapes must re-encode to the golden bytes, result
// shapes must decode to what json.Unmarshal gives and re-marshal to them.
func TestHandCodecsMatchGoldens(t *testing.T) {
	type roundTrip func(t *testing.T, golden []byte) []byte
	encodeVia := func(decodeInto func() any, enc func(v any) []byte) roundTrip {
		return func(t *testing.T, golden []byte) []byte {
			v := decodeInto()
			if err := json.Unmarshal(golden, v); err != nil {
				t.Fatal(err)
			}
			return enc(v)
		}
	}
	checks := map[string]roundTrip{
		"compile_request.json": encodeVia(func() any { return new(CompileRequest) },
			func(v any) []byte { return AppendCompileRequest(nil, v.(*CompileRequest)) }),
		"loop_tomcatv0.json": encodeVia(func() any { return new(corpus.Loop) },
			func(v any) []byte { return appendLoop(nil, v.(*corpus.Loop)) }),
		"machine_hetero.json": encodeVia(func() any { return new(Machine) },
			func(v any) []byte { return appendMachine(nil, v.(*Machine)) }),
		"machines_table1.json": encodeVia(func() any { return new([]*Machine) },
			func(v any) []byte {
				out := []byte{'['}
				for i, m := range *v.(*[]*Machine) {
					if i > 0 {
						out = append(out, ',')
					}
					out = appendMachine(out, m)
				}
				return append(out, ']')
			}),
		"options_full.json": encodeVia(func() any { return new(Options) },
			func(v any) []byte { return appendOptions(nil, v.(*Options)) }),
	}
	decodeResultGolden := func(t *testing.T, golden []byte) []byte {
		body := append(append([]byte(`{"v":1,"result":`), golden...), '}')
		var viaJSON, viaHand CompileResponse
		if err := json.Unmarshal(body, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if err := DecodeCompileResponse(body, &viaHand); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaJSON, viaHand) {
			t.Errorf("hand decode differs from json.Unmarshal:\n got %+v\nwant %+v", viaHand.Result, viaJSON.Result)
		}
		out, err := json.Marshal(viaHand.Result)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, name := range []string{"result_exact.json", "result_fellback.json", "result_stages.json"} {
		checks[name] = decodeResultGolden
	}

	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		check, ok := checks[name]
		if !ok {
			t.Errorf("golden %s has no hand-codec check; add one here", name)
			continue
		}
		delete(checks, name)
		t.Run(strings.TrimSuffix(name, ".json"), func(t *testing.T) {
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var indented bytes.Buffer
			if err := json.Indent(&indented, check(t, golden), "", "  "); err != nil {
				t.Fatal(err)
			}
			indented.WriteByte('\n')
			if !bytes.Equal(indented.Bytes(), golden) {
				t.Errorf("hand codec drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, indented.Bytes(), golden)
			}
		})
	}
	for name := range checks {
		t.Errorf("check for %s has no golden", name)
	}
}
