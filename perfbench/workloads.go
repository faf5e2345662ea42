package main

import (
	"context"

	"repro/internal/loadgen"
	"repro/internal/machine"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

// workload is one benchmark workload.
type workload struct {
	name string
	// why is the workload's reason to exist (BENCHMARK.json repeats it).
	why string
	run func(ctx context.Context, e *env) (*report, error)
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func init() {
	register(&workload{
		name: "paper-grid",
		why:  "the paper's evaluation: 80 SPECfp95-profile loops x 9 Table 1 configs x 4 flavours compiled cold in-process on nproc workers; compile cost and IPC; bypasses wire, service, cluster",
		run:  runPaperGrid,
	})
}

// synthSpec is the generator shape of the service corpora: loadgen's
// default knobs over bodies of minNodes..maxNodes operations.
func synthSpec(prefix string, minNodes, maxNodes int) loadgen.Spec {
	return loadgen.Spec{
		MinNodes: minNodes, MaxNodes: maxNodes,
		RecurrenceDensity: 0.25, ExtraEdgeDensity: 0.5, ClusterAffinity: 0.6,
		Prefix: prefix,
	}
}

// clustered lists the clustered Table 1 machines.
func clustered() []string {
	var out []string
	for _, c := range machine.Table1Configs() {
		if c.Clustered() {
			out = append(out, c.Name)
		}
	}
	return out
}

var serveHot = &serveShape{
	name:       "serve-hot",
	why:        "one schedd, warmed 96-loop x 4-machine corpus, every request a cache hit: wire, fingerprint, handler, HTTP; ladder 200/400/600 qps, nominal 400, p99 limit 25 ms",
	spec:       synthSpec("hot", 8, 32),
	machines:   []string{"unified", "2-cluster/B1/L1", "4-cluster/B1/L1", "4-cluster/B2/L2"},
	strategies: []string{"selective"},
	loops:      96,
	rates:      []float64{200, 400, 600},
	shares:     []float64{0.2, 0.6, 0.2},
	nominal:    1,
	limitMS:    25,
	batch:      4,
	bfrac:      0.1,
	salt:       1,
}

var serveChurn = &serveShape{
	name:       "serve-churn",
	why:        "one schedd with a 1 MiB cache, every request a fresh loop on a clustered machine (selective/portfolio): compile and cache write path; ladder 75/150/225 qps, nominal 150, p99 limit 250 ms",
	spec:       synthSpec("churn", 8, 32),
	machines:   clustered(),
	strategies: []string{"selective", "portfolio"},
	warm:       40,
	rates:      []float64{75, 150, 225},
	shares:     []float64{0.2, 0.6, 0.2},
	nominal:    1,
	limitMS:    250,
	cacheBytes: 1 << 20,
	salt:       2,
}

var clusterRoute = &serveShape{
	name:       "cluster-route",
	why:        "schedrouter + 2 peered schedd; 640 keys overflow one 4 MiB cache, fit two: router hop, ring, peer fetch; ladder 150/300/400 qps, nominal 300, p99 limit 40 ms",
	spec:       synthSpec("route", 8, 32),
	machines:   []string{"2-cluster/B1/L1", "4-cluster/B1/L1"},
	strategies: []string{"selective"},
	loops:      320,
	rates:      []float64{150, 300, 400},
	shares:     []float64{0.2, 0.6, 0.2},
	nominal:    1,
	limitMS:    40,
	cacheBytes: 4 << 20,
	replicas:   2,
	salt:       3,
}

func init() {
	for _, sh := range []*serveShape{serveHot, serveChurn, clusterRoute} {
		sh := sh
		register(&workload{
			name: sh.name,
			why:  sh.why,
			run:  func(ctx context.Context, e *env) (*report, error) { return runServe(ctx, e, sh) },
		})
	}
}
