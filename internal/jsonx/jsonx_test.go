package jsonx

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// dto exercises every reader: each scalar, a pointer, a slice of
// structs, a fixed array, a nested struct pointer and a map read
// through Null and Object.
type dto struct {
	I   int            `json:"i"`
	I64 int64          `json:"i64"`
	F   float64        `json:"f"`
	B   bool           `json:"b"`
	S   string         `json:"s"`
	P   *int           `json:"p"`
	L   []inner        `json:"l"`
	A   [2]int         `json:"a"`
	N   *inner         `json:"n"`
	M   map[string]int `json:"m"`
}

type inner struct {
	X int      `json:"x"`
	Y []string `json:"y"`
}

var (
	dtoFields   = []string{"i", "i64", "f", "b", "s", "p", "l", "a", "n", "m"}
	innerFields = []string{"x", "y"}
)

// decodeDTO decodes a dto; strict codecs fail on an unknown key where
// lenient ones skip it.
func decodeDTO(d *Decoder, v *dto, strict bool) {
	unknown := func(key []byte) {
		if strict {
			d.UnknownField(key)
		} else {
			d.Skip()
		}
	}
	decodeInner := func(d *Decoder, in *inner) {
		for more := d.Object(); more; more = d.More('}') {
			switch key := d.Key(); Match(key, innerFields) {
			case "x":
				d.Int(&in.X)
			case "y":
				Slice(d, &in.Y, (*Decoder).String)
			default:
				unknown(key)
			}
		}
	}
	for more := d.Object(); more; more = d.More('}') {
		switch key := d.Key(); Match(key, dtoFields) {
		case "i":
			d.Int(&v.I)
		case "i64":
			d.Int64(&v.I64)
		case "f":
			d.Float64(&v.F)
		case "b":
			d.Bool(&v.B)
		case "s":
			d.String(&v.S)
		case "p":
			Ptr(d, &v.P, (*Decoder).Int)
		case "l":
			Slice(d, &v.L, decodeInner)
		case "a":
			Array(d, v.A[:], (*Decoder).Int)
		case "n":
			Ptr(d, &v.N, decodeInner)
		case "m":
			if d.Null() {
				v.M = nil
				continue
			}
			if v.M == nil {
				v.M = map[string]int{}
			}
			for more := d.Object(); more; more = d.More('}') {
				k := string(d.Key())
				var n int
				d.Int(&n)
				v.M[k] = n
			}
		default:
			unknown(key)
		}
	}
}

// strictUnmarshal is encoding/json's strict decode: one value, unknown
// fields rejected, nothing but whitespace after it.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return &json.SyntaxError{}
	}
	return nil
}

func decoderSeeds() []string {
	return []string{
		`{"i":1,"i64":-9223372036854775808,"f":2.5e-3,"b":true,"s":"x\u00e9\ud83d\ude00","p":3,"l":[{"x":1,"y":["a"]}],"a":[1,2],"n":{"x":4},"m":{"k":1}}`,
		`{"I":1,"I64":2,"F":1E2,"B":false,"S":null,"P":null,"L":null,"A":null,"N":null,"M":null}`,
		`{"l":[{"x":1,"y":["a","b"]},{"x":2}],"l":[{"y":["c"]}],"a":[1,2,3],"a":[9],"m":{"a":1},"m":{"b":null}}`,
		`{"a":[1,{"z":[true,null,"s",1.5e9]}],"extra":{"q":[[],{}]},"p":1,"p":2}`,
		`{"i":1.5}`, `{"i":1e3}`, `{"i":"1"}`, `{"i":9223372036854775808}`, `{"i64":-9223372036854775809}`,
		`{"f":1e400}`, `{"f":-0}`, `{"b":1}`, `{"s":1}`, `{"a":{}}`, `{"a":[1.5]}`, `{"l":{}}`, `{"n":[]}`,
		`{"m":{"a":"b"}}`, `{"m":[]}`, `{"i":01}`, `{"i":-}`, `{"i":1.}`, `{"i":1e}`, `{"s":"\x"}`, `{"s":"` + "\x01" + `"}`,
		`{"s":"\u12"}`, `{"s":"` + "\xff\xfe" + `\ud800\udc00\ud800x"}`, `{"\u0069":7}`, `{"\u212a":1}`,
		`{"i":1}x`, `{"i":1}]`, `{"i":1}}`, `{"i":1} `, "\t{ \"i\" : 1 }\n", `{"i":1,}`, `{,}`, `{"i"}`, `{"i":1 "b":true}`,
		`null`, `[]`, `5`, `"s"`, `true`, ``, ` `, `nul`, `{`, `{"i":`, "{\"i\":1}\x00", `[[[[[[]]]]]]`,
		`{"extra":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
		`{"extra":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	}
}

// FuzzDecoder runs the Decoder against encoding/json on arbitrary
// bytes, lenient (skipping unknown keys) against json.Unmarshal and
// strict (failing on them) against a json.Decoder with
// DisallowUnknownFields and a trailing-data check.  Both sides must
// accept or reject alike and, on accept, decode reflect.DeepEqual
// values.  Each side starts from the same non-zero value, so reuse of
// existing targets and elements is compared too.
func FuzzDecoder(f *testing.F) {
	for _, s := range decoderSeeds() {
		f.Add([]byte(s))
	}
	start := func() dto {
		p := 7
		return dto{I: 1, S: "old", P: &p, L: make([]inner, 1, 4), A: [2]int{5, 6}, M: map[string]int{"o": 1}}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, strict := range []bool{false, true} {
			want, got := start(), start()
			var wantErr error
			if strict {
				wantErr = strictUnmarshal(data, &want)
			} else {
				wantErr = json.Unmarshal(data, &want)
			}
			d := NewDecoder(data)
			decodeDTO(d, &got, strict)
			gotErr := d.End()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("strict=%v: decoders disagree on %q:\njsonx:         %v\nencoding/json: %v", strict, data, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("strict=%v: values differ on %q:\njsonx:         %+v\nencoding/json: %+v", strict, data, got, want)
			}
		}
	})
}

// encodeNoHTML is what a json.Encoder with SetEscapeHTML(false) writes
// for v, without the trailing newline.
func encodeNoHTML(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

func appendSeeds() []string {
	seeds := []string{"", "plain", `"q" \ / <a&b> é ☃ 😀`, "\u2028\u2029", "\xff", "a\xc3", "\xed\xa0\x80",
		"\x00\x01\b\f\n\r\t\x1f\x7f", "</script>", "\ufffd"}
	var all []byte
	for c := 0; c < 256; c++ {
		all = append(all, byte(c))
	}
	return append(seeds, string(all))
}

// TestAppendString holds both string appenders to encoding/json, one
// byte value at a time and on the seeds.
func TestAppendString(t *testing.T) {
	inputs := appendSeeds()
	for c := 0; c < 256; c++ {
		inputs = append(inputs, string([]byte{'a', byte(c), 'z'}))
	}
	for _, s := range inputs {
		checkStrings(t, s)
	}
}

func checkStrings(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendString([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Errorf("AppendString(%q) = %s, want x%s", s, got, want)
	}
	want, err = encodeNoHTML(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendStringNoHTML([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Errorf("AppendStringNoHTML(%q) = %s, want x%s", s, got, want)
	}
}

func floatSeeds() []float64 {
	return []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.5, 1e-6, 9.99e-7, -1e-7, 1e-10,
		1e-100, 5e-324, 1e20, 1e21, -1e21, 123456789012345678901, 1.5e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0.000001234, 100, 1e6}
}

// TestAppendFloat holds AppendFloat to encoding/json at the format
// boundaries (1e-6, 1e21), with one- to three-digit exponents, signed
// zeros and the extremes.
func TestAppendFloat(t *testing.T) {
	for _, x := range floatSeeds() {
		checkFloat(t, x)
	}
}

func checkFloat(t *testing.T, x float64) {
	t.Helper()
	want, err := json.Marshal(x)
	if err != nil {
		return // NaN and ±Inf: AppendFloat's callers refuse them first
	}
	if got := AppendFloat([]byte("x"), x); !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Errorf("AppendFloat(%v) = %s, want x%s", x, got, want)
	}
}

// FuzzAppend runs the string and float appenders against encoding/json
// on arbitrary values.
func FuzzAppend(f *testing.F) {
	fs := floatSeeds()
	for i, s := range appendSeeds() {
		f.Add(s, fs[i%len(fs)])
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		checkStrings(t, s)
		checkFloat(t, x)
	})
}
