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

func BenchmarkDecodeCompileRequest(b *testing.B) {
	reqs := benchRequests(b, 96)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		bodies[i] = wire.AppendCompileRequest(nil, &reqs[i])
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		var req wire.CompileRequest
		if err := wire.DecodeStrict(bytes.NewReader(bodies[i%len(bodies)]), &req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendCompileRequest(b *testing.B) {
	reqs := benchRequests(b, 96)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		wire.AppendCompileRequest(nil, &reqs[i%len(reqs)])
	}
}

// BenchmarkDecodeCompileResponse decodes the bodies a server writes for
// the benchmark corpus, compiled with selective unrolling.
func BenchmarkDecodeCompileResponse(b *testing.B) {
	reqs := benchRequests(b, 32)
	var bodies [][]byte
	for _, req := range reqs {
		cfg, ok := machine.ConfigByName(req.MachineRef)
		opts, werr := req.Options.Core()
		if !ok || werr != nil {
			b.Fatalf("request %s: %v", req.MachineRef, werr)
		}
		res, err := core.Compile(req.Loop.Graph, &cfg, &opts)
		if err != nil {
			continue // unschedulable: no 200 body to decode
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(wire.CompileResponse{V: wire.Version, Result: wire.FromResult(res)}); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		var resp wire.CompileResponse
		if err := wire.DecodeCompileResponse(bodies[i%len(bodies)], &resp); err != nil {
			b.Fatal(err)
		}
	}
}
