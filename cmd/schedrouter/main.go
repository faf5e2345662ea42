// Command schedrouter fronts N schedd replicas as one logical daemon:
// compile traffic consistent-hashes on the loop's content fingerprint
// so identical loops always land on the shard that has them cached,
// stats and capabilities aggregate across the fleet, and a dead
// replica degrades to rehashing onto the next shard on the ring.
//
// Quickstart (3-replica cluster):
//
//	schedd -addr :8181 &
//	schedd -addr :8182 &
//	schedd -addr :8183 &
//	schedrouter -addr :8080 \
//	  -replicas s1=http://127.0.0.1:8181,s2=http://127.0.0.1:8182,s3=http://127.0.0.1:8183
//
// Replica names (the part before "=") are the ring identity; keep them
// stable across restarts and deploys so the keyspace does not
// reshuffle when a replica changes address.  Clients and the load
// harness point at the router exactly as they would at one schedd: it
// is a service.Backend behind the same HTTP front end, so deadlines,
// the batch stream and SIGTERM drain behave alike.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		replicas = flag.String("replicas", "",
			"comma-separated replicas, each name=url (bare urls use the url as ring name)")
		vnodes        = flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default)")
		attempts      = flag.Int("attempts", 0, "attempts per routed request across the failover chain (0 = client default)")
		hedge         = flag.Duration("hedge", 0, "hedge delay before racing the next replica (0 = no hedging)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "replica health/capability probe period")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "budget for one replica probe")
		grace         = flag.Duration("grace", 30*time.Second, "shutdown drain budget")
	)
	flag.Parse()

	reps, err := parseReplicas(*replicas)
	if err != nil {
		log.Fatalf("schedrouter: -replicas: %v", err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:     reps,
		VNodes:       *vnodes,
		Attempts:     *attempts,
		Hedge:        *hedge,
		ProbeTimeout: *probeTimeout,
	})
	if err != nil {
		log.Fatalf("schedrouter: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ready := rt.Probe(ctx)
	log.Printf("schedrouter: %d/%d replicas ready", ready, len(reps))
	go func() {
		t := time.NewTicker(*probeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rt.Probe(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("schedrouter: listening on %s, sharding across %d replicas", *addr, len(reps))

	select {
	case err := <-errc:
		log.Fatalf("schedrouter: %v", err)
	case <-ctx.Done():
	}
	// Flip readiness first so load balancers stop routing here and new
	// compile work is refused, then let in-flight requests finish.
	rt.BeginDrain()
	log.Printf("schedrouter: draining (up to %v)", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("schedrouter: drain incomplete: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("schedrouter: %v", err)
	}
	log.Printf("schedrouter: %d requests rehashed around dead or incapable replicas", rt.Rehashes())
}

// parseReplicas parses "name=url,name=url" (name optional).
func parseReplicas(spec string) ([]cluster.Replica, error) {
	if spec == "" {
		return nil, fmt.Errorf("at least one replica required")
	}
	var out []cluster.Replica
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			name, url = part, part
		}
		if name == "" || url == "" {
			return nil, fmt.Errorf("bad replica %q (want name=url)", part)
		}
		out = append(out, cluster.Replica{Name: name, URL: url})
	}
	return out, nil
}
