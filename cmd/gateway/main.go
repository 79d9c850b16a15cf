// Command gateway fronts a fleet of cmd/serve replicas with one HTTP
// address: consistent-hash routing of query endpoints so each
// replica's cache stays hot for its key range, health-probed failover
// when a replica dies (and automatic range reclamation when it
// returns), fan-out of POST /ingest to every replica's drift monitor,
// and scatter/gather for POST /route/batch.
//
// A three-replica fleet, each started as
//
//	serve -synthetic -addr :8081 -replica-id r1
//	serve -synthetic -addr :8082 -replica-id r2
//	serve -synthetic -addr :8083 -replica-id r3
//
// is fronted by
//
//	gateway -addr :8080 -replicas r1=http://localhost:8081,r2=http://localhost:8082,r3=http://localhost:8083
//
// after which clients use the gateway address exactly as they would a
// single serve instance — every query response additionally carries an
// X-Replica header naming the replica that answered.
//
// Note the replicas above each train their own synthetic model; for a
// fleet that answers bit-identically, train once with cmd/train and
// point every replica at the same artifacts.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stochroute/internal/gateway"
	"stochroute/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.String("replicas", "", "fleet as comma-separated id=url pairs, e.g. r1=http://localhost:8081,r2=http://localhost:8082 (required); ids must match each replica's -replica-id")
	probeEvery := flag.Duration("probe-interval", 2*time.Second, "health-probe period")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "per-probe timeout")
	downAfter := flag.Int("down-after", 2, "consecutive probe failures before a replica is marked down (request-path transport failures mark it down immediately)")
	timeout := flag.Duration("timeout", 15*time.Second, "per-dispatch timeout")
	ingestQueue := flag.Int("ingest-queue", 256, "per-replica ingest fan-out queue depth in batches (also byte-bounded by -ingest-queue-bytes)")
	ingestQueueBytes := flag.Int64("ingest-queue-bytes", 64<<20, "per-replica byte cap across queued ingest bodies; replicas × this value is the gateway's worst-case ingest memory while a replica is down")
	ingestAttempts := flag.Int("ingest-attempts", 10, "delivery attempts per ingest batch before it is dropped for that replica")
	metricsOn := flag.Bool("metrics", true, "serve the Prometheus text exposition on GET /metrics")
	spanSample := flag.Int("span-sample", 0, "record a span tree for 1 in N requests on GET /debug/traces (0 disables; sampled traceparent headers always trace)")
	traceStore := flag.Int("trace-store", 256, "completed traces retained for /debug/traces")
	flag.Parse()

	fleet, err := parseReplicas(*replicas)
	if err != nil {
		log.Fatalf("-replicas: %v", err)
	}

	var tracer *obs.Tracer
	if *spanSample > 0 {
		tracer = obs.NewTracer(obs.NewSpanStore(*traceStore, 0), *spanSample)
	}

	gw, err := gateway.New(gateway.Config{
		Replicas:         fleet,
		ProbeInterval:    *probeEvery,
		ProbeTimeout:     *probeTimeout,
		DownAfter:        *downAfter,
		RequestTimeout:   *timeout,
		IngestQueue:      *ingestQueue,
		IngestQueueBytes: *ingestQueueBytes,
		IngestAttempts:   *ingestAttempts,
		DisableMetrics:   !*metricsOn,
		Tracer:           tracer,
		LogW:             os.Stderr,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("gateway: fronting %d replicas on %s (%d vnodes each, probe every %v)",
		len(fleet), *addr, gateway.DefaultVNodes, *probeEvery)
	if err := gw.Serve(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Print("gateway: shut down")
}

// parseReplicas decodes the -replicas flag: comma-separated id=url
// pairs, order defining the fleet's stable metric/ring order.
func parseReplicas(s string) ([]gateway.Replica, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errEmptyFleet
	}
	var out []gateway.Replica
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, badPairError(part)
		}
		out = append(out, gateway.Replica{ID: id, URL: url})
	}
	if len(out) == 0 {
		return nil, errEmptyFleet
	}
	return out, nil
}

type parseError string

func (e parseError) Error() string { return string(e) }

const errEmptyFleet = parseError("at least one id=url pair is required")

func badPairError(part string) error {
	return parseError("malformed pair " + part + " (want id=url)")
}
