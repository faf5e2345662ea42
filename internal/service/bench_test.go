package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/wire"
)

// BenchmarkFrontCompileHit measures the handler's fixed cost on a cache
// hit: request decode, key, lookup and response encode, through
// ServeHTTP with no network.  The corpus has serve-hot's shape — 96
// synthesized loops of 8–32 nodes on four Table 1 machines under
// selective — and is compiled once before timing, so every timed
// request is a hit.
func BenchmarkFrontCompileHit(b *testing.B) {
	loops, err := loadgen.Spec{
		Count: 96, MinNodes: 8, MaxNodes: 32,
		RecurrenceDensity: 0.25, ExtraEdgeDensity: 0.5, ClusterAffinity: 0.6,
		Seed: 1, Prefix: "hot",
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	for _, l := range loops {
		for _, m := range []string{"unified", "2-cluster/B1/L1", "4-cluster/B1/L1", "4-cluster/B2/L2"} {
			req := wire.CompileRequest{V: wire.Version, Loop: l, MachineRef: m,
				Options: &wire.Options{Strategy: "selective"}}
			bodies = append(bodies, wire.AppendCompileRequest(nil, &req))
		}
	}
	h := New(Config{}).Handler()
	serve := func(body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/compile", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	for _, body := range bodies {
		serve(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}
