package wire_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/wire"
)

// benchRequests is a seeded loadgen corpus of 8-32-op loops as compile
// requests, spread over four Table 1 machines: the shape of the
// service's hot path.
func benchRequests(b *testing.B, n int) []wire.CompileRequest {
	b.Helper()
	spec := loadgen.Spec{Count: n, MinNodes: 8, MaxNodes: 32, Seed: 1, Prefix: "bench",
		RecurrenceDensity: 0.25, ExtraEdgeDensity: 0.5, ClusterAffinity: 0.6}
	loops, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	machines := []string{"unified", "2-cluster/B1/L1", "4-cluster/B1/L1", "4-cluster/B2/L2"}
	reqs := make([]wire.CompileRequest, len(loops))
	for i, l := range loops {
		reqs[i] = wire.CompileRequest{V: wire.Version, Loop: l, MachineRef: machines[i%len(machines)],
			Options: &wire.Options{Strategy: "selective"}}
	}
	return reqs
}

// BenchmarkDecodeCompileRequest runs the server's request decoder;
// the DecodeStrict sub-benchmark is the reflective decode it replaced.
func BenchmarkDecodeCompileRequest(b *testing.B) {
	reqs := benchRequests(b, 96)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		bodies[i] = wire.AppendCompileRequest(nil, &reqs[i])
	}
	for _, c := range []struct {
		name   string
		decode func([]byte, *wire.CompileRequest) error
	}{
		{"hand", wire.DecodeCompileRequest},
		{"DecodeStrict", func(body []byte, req *wire.CompileRequest) error {
			return wire.DecodeStrict(bytes.NewReader(body), req)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				var req wire.CompileRequest
				if err := c.decode(bodies[i%len(bodies)], &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAppendCompileRequest(b *testing.B) {
	reqs := benchRequests(b, 96)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		wire.AppendCompileRequest(nil, &reqs[i%len(reqs)])
	}
}

// benchResponses compiles the benchmark corpus with selective
// unrolling into the responses a server sends for it.
func benchResponses(b *testing.B, n int) []wire.CompileResponse {
	b.Helper()
	var out []wire.CompileResponse
	for _, req := range benchRequests(b, n) {
		cfg, ok := machine.ConfigByName(req.MachineRef)
		opts, werr := req.Options.Core()
		if !ok || werr != nil {
			b.Fatalf("request %s: %v", req.MachineRef, werr)
		}
		res, err := core.Compile(req.Loop.Graph, &cfg, &opts)
		if err != nil {
			continue // unschedulable: no 200 body
		}
		out = append(out, wire.CompileResponse{V: wire.Version, Result: wire.FromResult(res)})
	}
	return out
}

// BenchmarkDecodeCompileResponse decodes the bodies a server writes for
// the benchmark corpus.
func BenchmarkDecodeCompileResponse(b *testing.B) {
	var bodies [][]byte
	for _, resp := range benchResponses(b, 32) {
		body, err := wire.AppendCompileResponse(nil, &resp)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		var resp wire.CompileResponse
		if err := wire.DecodeCompileResponse(bodies[i%len(bodies)], &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendCompileResponse runs the server's response encoder;
// the json.Encoder sub-benchmark is the reflective encode it replaced.
func BenchmarkAppendCompileResponse(b *testing.B) {
	resps := benchResponses(b, 32)
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; b.Loop(); i++ {
			var err error
			if buf, err = wire.AppendCompileResponse(buf[:0], &resps[i%len(resps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Encoder", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; b.Loop(); i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(&resps[i%len(resps)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
