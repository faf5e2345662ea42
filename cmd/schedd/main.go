// Command schedd is the modulo-scheduling daemon: the compile pipeline
// behind an HTTP surface (internal/service) speaking the versioned JSON
// wire format (internal/wire).
//
// Quickstart:
//
//	schedd -addr :8080 &
//	curl -s localhost:8080/v1/compile -d '{
//	  "v": 1, "loop_ref": "tomcatv.loop0", "machine_ref": "4-cluster/B1/L1",
//	  "options": {"strategy": "selective"}
//	}'
//	curl -s localhost:8080/v1/stats
//
// POST /v1/batch takes {"v":1,"requests":[...]} and streams NDJSON, one
// result line per request as each compilation completes.  SIGINT/SIGTERM
// drain gracefully: /readyz flips to 503, in-flight requests get up to
// 30s to finish, then the final pipeline stats go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheBytes = flag.Int64("cache-bytes", 64<<20, "compile cache byte budget (0 = unbounded)")
		faultSpec  = flag.String("faults", "",
			"chaos-mode fault spec, e.g. seed=1,panic=0.05,latency=0.2:10ms (never in production)")
		peers = flag.String("peers", "",
			"comma-separated replica base URLs, this daemon's own included, for cache federation (cluster mode); a miss on a key another replica owns asks that owner before compiling")
		peerSelf = flag.String("peer-self", "", "this daemon's own URL within -peers (it never asks peers about keys it owns)")
		snapshot = flag.String("snapshot", "",
			"cache snapshot path: warm-start from it at boot (if present), write it back after drain")
		prefill = flag.String("prefill", "",
			"corpus NDJSON (cmd/loadgen gen) to precompile for machine_ref "+prefillMachine+" at boot")
	)
	flag.Parse()

	var injector *faults.Injector
	if *faultSpec != "" {
		var err error
		if injector, err = faults.Parse(*faultSpec); err != nil {
			log.Fatalf("schedd: -faults: %v", err)
		}
	}

	srv := service.New(service.Config{CacheBytes: *cacheBytes, Faults: injector})

	if *peers != "" {
		pl, err := cluster.NewPeerLookup(cluster.PeerConfig{Self: *peerSelf, Peers: strings.Split(*peers, ",")})
		if err != nil {
			log.Fatalf("schedd: -peers: %v", err)
		}
		if pl != nil {
			srv.Pipeline().SetPeerLookup(pl.Func())
			log.Printf("schedd: federating cache misses across peers %s", *peers)
		}
	}
	if *snapshot != "" {
		if n, err := loadSnapshot(srv, *snapshot); err != nil {
			log.Fatalf("schedd: -snapshot %s: %v", *snapshot, err)
		} else if n >= 0 {
			log.Printf("schedd: warm-started %d cache entries from %s", n, *snapshot)
		}
	}
	if *prefill != "" {
		n, total, err := prefillCache(srv.Pipeline(), *prefill)
		if err != nil {
			log.Fatalf("schedd: -prefill %s: %v", *prefill, err)
		}
		log.Printf("schedd: prefilled %d/%d corpus compiles from %s", n, total, *prefill)
	}

	log.Printf("schedd: %d workers, %s cache", srv.Pipeline().Workers(), byteCount(*cacheBytes))
	if injector != nil {
		log.Printf("schedd: CHAOS MODE: injecting %v (%s)", injector.Faults(), injector)
	}
	if err := service.Serve(context.Background(), "schedd", *addr, srv.Handler(), srv.BeginDrain); err != nil {
		log.Fatalf("schedd: %v", err)
	}
	if *snapshot != "" {
		if n, err := saveSnapshot(srv, *snapshot); err != nil {
			log.Printf("schedd: snapshot: %v", err)
		} else {
			log.Printf("schedd: snapshot: wrote %d cache entries to %s", n, *snapshot)
		}
	}
	log.Printf("schedd: %v", srv.Pipeline().Stats())
}

// loadSnapshot warm-starts the cache from an NDJSON snapshot.  A
// missing file is the normal cold boot (n = -1, no error); anything
// else that fails is fatal — a corrupt snapshot should be deleted, not
// half-believed.
func loadSnapshot(srv *service.Server, path string) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return -1, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return wire.LoadCache(f, srv.Pipeline())
}

// saveSnapshot persists the cache after drain, atomically: write to a
// temp file in the same directory, then rename over the target, so a
// crash mid-write never truncates the previous good snapshot.
func saveSnapshot(srv *service.Server, path string) (int, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	n, err := wire.SaveCache(f, srv.Pipeline())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	return n, nil
}

// prefillMachine is the machine_ref -prefill compiles against.
const prefillMachine = "4-cluster/B1/L1"

// prefillCache compiles a corpus against prefillMachine so the cache
// is hot before the first request.  Individual unschedulable loops are
// skipped, not fatal.
func prefillCache(pipe *pipeline.Pipeline, corpusPath string) (ok, total int, err error) {
	f, err := os.Open(corpusPath)
	if err != nil {
		return 0, 0, err
	}
	loops, err := loadgen.ReadCorpus(f)
	f.Close()
	if err != nil {
		return 0, 0, err
	}
	cfg, found := machine.ConfigByName(prefillMachine)
	if !found {
		return 0, 0, fmt.Errorf("unknown machine_ref %q", prefillMachine)
	}
	reqs := make([]pipeline.Request, len(loops))
	for i, l := range loops {
		reqs[i] = pipeline.Request{Loop: l, Cfg: cfg}
	}
	for _, r := range pipe.CompileBatch(reqs) {
		if r.Err == nil {
			ok++
		}
	}
	return ok, len(reqs), nil
}

// byteCount renders a byte budget for the startup log.
func byteCount(n int64) string {
	switch {
	case n <= 0:
		return "unbounded"
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
