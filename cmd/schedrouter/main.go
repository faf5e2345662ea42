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
// Replica names (the part before "=", optional) are labels only: the
// ring hashes each loop's fingerprint over the replica URLs, the same
// rule the replicas' -peers ring applies (see internal/cluster), so
// spell each URL as the replicas' -peers lists do.  Clients and the
// load harness point at the router exactly as they would at one
// schedd: it is a service.Backend behind the same HTTP front end, so
// deadlines, the batch stream and SIGTERM drain behave alike.  Each
// routed exchange retries with internal/client's defaults; the flags
// are only -addr, -replicas and -probe-interval.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		replicas = flag.String("replicas", "",
			"comma-separated replica base urls, each optionally labelled name=url; the ring hashes the urls")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "replica health/capability probe period")
	)
	flag.Parse()

	reps, err := parseReplicas(*replicas)
	if err != nil {
		log.Fatalf("schedrouter: -replicas: %v", err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: reps})
	if err != nil {
		log.Fatalf("schedrouter: %v", err)
	}

	ready := rt.Probe(context.Background())
	log.Printf("schedrouter: %d/%d replicas ready", ready, len(reps))
	go func() {
		for range time.Tick(*probeInterval) {
			rt.Probe(context.Background())
		}
	}()

	if err := service.Serve(context.Background(), "schedrouter", *addr, rt.Handler(), rt.BeginDrain); err != nil {
		log.Fatalf("schedrouter: %v", err)
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
